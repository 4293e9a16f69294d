package obs

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// checkPprofFile asserts the file at path is a non-empty, decompressable
// gzipped pprof protobuf (the format pprof.WriteTo(w, 0) emits).
func checkPprofFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Fatalf("%s is not gzipped (len %d, magic %x)", path, len(raw), raw[:min(2, len(raw))])
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("gunzip %s: %v", path, err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("decompress %s: %v", path, err)
	}
	if len(body) == 0 {
		t.Fatalf("%s decompressed to nothing", path)
	}
}

func TestBundleWriteAndReadBack(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	reg.Counter("serve.accepted_total").Add(7)
	col := NewRuntimeCollector(reg, time.Nanosecond)
	col.Sample()
	rec := NewFlightRecorder(8, 8)
	tr := NewTracer(nil)
	tr.Mirror(rec.RecordSpan)
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("bundle-req-%d", i)
		_, sp := StartSpan(WithTracer(WithRequestID(context.Background(), id), tr), "serve.request")
		sp.End()
		rec.RecordRequest(RequestEvent{ID: id, Outcome: "ok", Status: 200, TotalMillis: float64(i + 1)})
	}

	w, err := NewBundleWriter(BundleConfig{
		Dir:                dir,
		CPUProfileDuration: 30 * time.Millisecond,
		Registry:           reg,
		Recorder:           rec,
		Runtime:            col,
	})
	if err != nil {
		t.Fatal(err)
	}
	reason := TriggerReason{Signal: "slo_burn_1m", Detail: "latency burn 1m = 100.0 (>= 10.0)", TimeUnixNs: time.Now().UnixNano()}
	bdir, err := w.Write(reason)
	if err != nil {
		t.Fatalf("write bundle: %v", err)
	}
	if !strings.Contains(filepath.Base(bdir), "slo_burn_1m") {
		t.Fatalf("bundle dir %q does not embed the signal", bdir)
	}

	meta, err := ReadBundleMeta(bdir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Reason != reason {
		t.Fatalf("meta reason %+v, want %+v", meta.Reason, reason)
	}
	if meta.CPUProfileError != "" {
		t.Fatalf("cpu profile failed: %s", meta.CPUProfileError)
	}
	if meta.Requests != 3 || meta.Spans != 3 {
		t.Fatalf("meta counts %d/%d", meta.Requests, meta.Spans)
	}
	if meta.RuntimeSamples < 1 {
		t.Fatal("meta has no runtime samples")
	}

	for _, f := range []string{BundleCPUFile, BundleHeapFile, BundleGorosFile} {
		checkPprofFile(t, filepath.Join(bdir, f))
	}

	// The ring dump round-trips through the wide-event decoder and the ids
	// join against the mirrored spans.
	rf, err := os.Open(filepath.Join(bdir, BundleRequestsFile))
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := ReadRequestEvents(rf)
	rf.Close()
	if err != nil {
		t.Fatalf("decode ring dump: %v", err)
	}
	if len(reqs) != 3 || reqs[0].ID != "bundle-req-0" {
		t.Fatalf("ring dump %+v", reqs)
	}
	spanRaw, err := os.ReadFile(filepath.Join(bdir, BundleSpansFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range reqs {
		if !bytes.Contains(spanRaw, []byte(`"req":"`+ev.ID+`"`)) {
			t.Fatalf("request %s has no joined span in spans.jsonl", ev.ID)
		}
	}

	// The metrics snapshot is valid JSON containing both serving and runtime
	// keys.
	var snap map[string]any
	metRaw, err := os.ReadFile(filepath.Join(bdir, BundleMetricsFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(metRaw, &snap); err != nil {
		t.Fatalf("metrics.json: %v", err)
	}
	if _, ok := snap["serve.accepted_total"]; !ok {
		t.Fatal("metrics.json lacks serve.accepted_total")
	}
	if _, ok := snap["runtime.heap_bytes"]; !ok {
		t.Fatal("metrics.json lacks runtime.heap_bytes")
	}

	// runtime.jsonl decodes line-by-line into samples.
	runRaw, err := os.ReadFile(filepath.Join(bdir, BundleRuntimeFile))
	if err != nil {
		t.Fatal(err)
	}
	var sample RuntimeSample
	if err := json.Unmarshal(bytes.Split(runRaw, []byte{'\n'})[0], &sample); err != nil {
		t.Fatalf("runtime.jsonl line 1: %v", err)
	}
	if sample.HeapBytes == 0 {
		t.Fatal("runtime.jsonl sample has no heap reading")
	}
}

func TestBundleEviction(t *testing.T) {
	dir := t.TempDir()
	w, err := NewBundleWriter(BundleConfig{Dir: dir, MaxBundles: 2, CPUProfileDuration: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := w.Write(TriggerReason{Signal: fmt.Sprintf("sig%d", i)}); err != nil {
			t.Fatalf("bundle %d: %v", i, err)
		}
		// The dir name has millisecond resolution; keep names distinct.
		time.Sleep(3 * time.Millisecond)
	}
	bundles, err := ListBundles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(bundles) != 2 {
		t.Fatalf("retained %d bundles, want 2", len(bundles))
	}
	// Oldest were evicted: the survivors are the two most recent signals.
	for i, want := range []string{"sig2", "sig3"} {
		if !strings.Contains(filepath.Base(bundles[i]), want) {
			t.Fatalf("survivor %d = %s, want signal %s", i, bundles[i], want)
		}
	}
}

func TestBundleWriterValidation(t *testing.T) {
	if _, err := NewBundleWriter(BundleConfig{}); err == nil {
		t.Fatal("empty dir accepted")
	}
	var nilW *BundleWriter
	if _, err := nilW.Write(TriggerReason{}); err == nil {
		t.Fatal("nil writer wrote")
	}
}

func TestBundleCaptureAsTriggerTarget(t *testing.T) {
	dir := t.TempDir()
	w, err := NewBundleWriter(BundleConfig{Dir: dir, CPUProfileDuration: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	e := NewTriggerEngine(TriggerConfig{Cooldown: time.Hour, OnTrigger: func(r TriggerReason) { w.Write(r) }}, //nolint:errcheck // the bundle is checked on disk
		TriggerSignal{Name: "always", Check: func() (bool, string) { return true, "forced" }})
	if why := e.Evaluate(time.Now()); why == nil {
		t.Fatal("did not fire")
	}
	bundles, err := ListBundles(dir)
	if err != nil || len(bundles) != 1 {
		t.Fatalf("bundles %v err %v, want exactly 1", bundles, err)
	}
	meta, err := ReadBundleMeta(bundles[0])
	if err != nil {
		t.Fatal(err)
	}
	if meta.Reason.Signal != "always" || meta.Reason.Detail != "forced" {
		t.Fatalf("meta reason %+v", meta.Reason)
	}
}

func TestReadBundleMetaRejectsBadSchema(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, BundleMetaFile), []byte(`{"schema":99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBundleMeta(dir); err == nil {
		t.Fatal("schema 99 accepted")
	}
	if err := os.WriteFile(filepath.Join(dir, BundleMetaFile), []byte(`not json`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBundleMeta(dir); err == nil {
		t.Fatal("garbage meta accepted")
	}
	if _, err := ReadBundleMeta(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing bundle accepted")
	}
}

func TestSanitizeBundleTag(t *testing.T) {
	cases := map[string]string{
		"":                       "manual",
		"slo_burn_1m":            "slo_burn_1m",
		"a/b c":                  "a_b_c",
		strings.Repeat("x", 100): strings.Repeat("x", 48),
	}
	for in, want := range cases {
		if got := sanitizeBundleTag(in); got != want {
			t.Fatalf("sanitize %q = %q, want %q", in, got, want)
		}
	}
}
