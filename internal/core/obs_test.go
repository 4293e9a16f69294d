package core

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"roarray/internal/obs"
	"roarray/internal/sparse"
	"roarray/internal/spectra"
	"roarray/internal/wireless"
)

// meteredTestEstimator is engineTestEstimator with a metrics registry wired
// through Config.Metrics.
func meteredTestEstimator(t testing.TB, reg *obs.Registry) *Estimator {
	t.Helper()
	ofdm := wireless.Intel5300OFDM()
	est, err := NewEstimator(Config{
		Array:         wireless.Intel5300Array(),
		OFDM:          ofdm,
		ThetaGrid:     spectra.UniformGrid(0, 180, 31),
		TauGrid:       spectra.UniformGrid(0, ofdm.MaxToA(), 10),
		SolverOptions: []sparse.Option{sparse.WithMaxIters(60)},
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// traceBuffer is a goroutine-safe bytes.Buffer for collecting JSONL spans.
type traceBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *traceBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *traceBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// TestEngineTraceCoversPipelineStages runs one traced batch through the
// engine and checks that the emitted span tree covers every pipeline stage:
// batch fan-out, per-request localization, per-AP estimation with its
// sanitize/dict/fuse/solve/peak internals, and the grid search.
func TestEngineTraceCoversPipelineStages(t *testing.T) {
	reg := obs.NewRegistry()
	est := meteredTestEstimator(t, reg)
	eng, err := NewEngine(est, 2)
	if err != nil {
		t.Fatal(err)
	}
	reqs := engineTestRequests(t, 2, 3, 4100)

	var buf traceBuffer
	ctx := obs.WithTracer(context.Background(), obs.NewTracer(&buf))
	results, errs := localizeBatch(ctx, eng, reqs)
	for i := range reqs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if results[i] == nil {
			t.Fatalf("request %d: nil result", i)
		}
	}

	events, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]obs.SpanEvent{}
	for _, ev := range events {
		byName[ev.Name] = append(byName[ev.Name], ev)
	}
	for _, stage := range []string{
		"localize.batch", "localize.req0", "localize.req1", "localize",
		"estimate.ap0", "estimate.ap1", "estimate.ap2", "estimate.ap3",
		"estimate.sanitize", "estimate.dict", "estimate.fuse",
		"estimate.solve", "estimate.peak", "localize.grid",
	} {
		if len(byName[stage]) == 0 {
			t.Errorf("trace is missing stage %q", stage)
		}
	}

	// Structural checks: one batch root; every request span is its child;
	// every other span belongs to the same trace.
	batches := byName["localize.batch"]
	if len(batches) != 1 {
		t.Fatalf("got %d localize.batch spans, want 1", len(batches))
	}
	root := batches[0]
	if root.Parent != 0 {
		t.Fatalf("batch root has parent %d, want 0", root.Parent)
	}
	for _, name := range []string{"localize.req0", "localize.req1"} {
		for _, ev := range byName[name] {
			if ev.Parent != root.Span {
				t.Errorf("%s parent = %d, want batch span %d", name, ev.Parent, root.Span)
			}
		}
	}
	for _, ev := range events {
		if ev.Trace != root.Trace {
			t.Errorf("span %q is in trace %d, want %d", ev.Name, ev.Trace, root.Trace)
		}
		if ev.DurNs < 0 {
			t.Errorf("span %q has negative duration %d", ev.Name, ev.DurNs)
		}
	}
}

// TestEngineMetricsPopulated runs a metered batch and checks that every
// acceptance-relevant metric is live in the registry snapshot: the
// localization latency histogram, the solver iteration histogram, the
// convergence-failure counter, and the dictionary cache-hit counter.
func TestEngineMetricsPopulated(t *testing.T) {
	reg := obs.NewRegistry()
	est := meteredTestEstimator(t, reg)
	eng, err := NewEngine(est, 2)
	if err != nil {
		t.Fatal(err)
	}
	reqs := engineTestRequests(t, 2, 2, 4200)
	_, errs := localizeBatch(context.Background(), eng, reqs)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	if got := reg.Counter("engine.requests_total").Value(); got != int64(len(reqs)) {
		t.Errorf("engine.requests_total = %d, want %d", got, len(reqs))
	}
	if got := reg.Counter("engine.batches_total").Value(); got != 1 {
		t.Errorf("engine.batches_total = %d, want 1", got)
	}
	// The joint dictionary is built once; the other 2*4-1 link estimates hit
	// the cache.
	if got := reg.Counter("core.dict.builds_total").Value(); got != 1 {
		t.Errorf("core.dict.builds_total = %d, want 1", got)
	}
	links := int64(len(reqs) * len(reqs[0].Links))
	if got := reg.Counter("core.dict.cache_hits_total").Value(); got != links-1 {
		t.Errorf("core.dict.cache_hits_total = %d, want %d", got, links-1)
	}
	if got := reg.Histogram("engine.localize.seconds").Snapshot(); got.Count != int64(len(reqs)) {
		t.Errorf("engine.localize.seconds count = %d, want %d", got.Count, len(reqs))
	}
	if got := reg.Histogram("core.solve.seconds").Snapshot(); got.Count != links {
		t.Errorf("core.solve.seconds count = %d, want %d", got.Count, links)
	}
	if got := reg.Counter("sparse.solve.total").Value(); got != links {
		t.Errorf("sparse.solve.total = %d, want %d", got, links)
	}
	if got := reg.Histogram("sparse.solve.iterations").Snapshot(); got.Count != links {
		t.Errorf("sparse.solve.iterations count = %d, want %d", got.Count, links)
	}
	// Convergence failures are workload dependent; the counter just has to
	// exist and be consistent with the solve total.
	if got := reg.Counter("sparse.solve.nonconverged_total").Value(); got < 0 || got > links {
		t.Errorf("sparse.solve.nonconverged_total = %d outside [0,%d]", got, links)
	}

	// The expvar-compatible snapshot must carry all acceptance metrics.
	var snap map[string]json.RawMessage
	var out bytes.Buffer
	if err := reg.WriteJSON(&out); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(out.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	for _, key := range []string{
		"engine.localize.seconds",
		"sparse.solve.iterations",
		"sparse.solve.nonconverged_total",
		"core.dict.cache_hits_total",
	} {
		if _, ok := snap[key]; !ok {
			t.Errorf("snapshot is missing %q", key)
		}
	}
}

// TestEngineMeteredMatchesPlain pins the determinism contract for the whole
// engine: attaching a registry and tracer must not change any localization
// output bit.
func TestEngineMeteredMatchesPlain(t *testing.T) {
	reqs := engineTestRequests(t, 2, 2, 4300)

	plain, err := NewEngine(engineTestEstimator(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	want, wantErrs := localizeBatch(context.Background(), plain, reqs)

	reg := obs.NewRegistry()
	metered, err := NewEngine(meteredTestEstimator(t, reg), 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf traceBuffer
	ctx := obs.WithTracer(context.Background(), obs.NewTracer(&buf))
	got, gotErrs := localizeBatch(ctx, metered, reqs)

	for i := range reqs {
		if (wantErrs[i] == nil) != (gotErrs[i] == nil) {
			t.Fatalf("request %d: error mismatch %v vs %v", i, wantErrs[i], gotErrs[i])
		}
		if wantErrs[i] != nil {
			continue
		}
		if want[i].Position != got[i].Position {
			t.Errorf("request %d: position %+v vs %+v", i, want[i].Position, got[i].Position)
		}
		for l := range want[i].Links {
			if want[i].Links[l].AoADeg != got[i].Links[l].AoADeg {
				t.Errorf("request %d link %d: AoA %v vs %v", i, l, want[i].Links[l].AoADeg, got[i].Links[l].AoADeg)
			}
		}
	}
}

// TestEngineLinkFailureCounter feeds a request with one empty link and checks
// the failure counter advances while the request still succeeds on the
// remaining links.
func TestEngineLinkFailureCounter(t *testing.T) {
	reg := obs.NewRegistry()
	est := meteredTestEstimator(t, reg)
	eng, err := NewEngine(est, 1)
	if err != nil {
		t.Fatal(err)
	}
	reqs := engineTestRequests(t, 1, 2, 4400)
	reqs[0].Links[1].Packets = nil

	res, err := eng.Localize(context.Background(), reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Links[1].Err == nil {
		t.Fatal("empty link did not report an error")
	}
	if got := reg.Counter("engine.link_failures_total").Value(); got != 1 {
		t.Errorf("engine.link_failures_total = %d, want 1", got)
	}
}
