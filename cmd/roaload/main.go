// Command roaload drives a running roaserve instance and reports service
// throughput, latency percentiles, and error rates as one JSON line.
//
// Usage:
//
//	roaload -addr 127.0.0.1:8092 -concurrency 8 -duration 5s
//	roaload -addr-file /tmp/roaserve.addr -mode open -rate 40 -duration 5s
//	roaload -addr :8092 -out BENCH_serve.json -min-ok 20 -min-mean-batch 1.5
//
// Modes:
//
//   - closed (default): -concurrency workers each issue requests
//     back-to-back, so offered load tracks service capacity. This is the
//     mode that demonstrates micro-batching: with concurrency >> 1 the
//     server's mean batch size must exceed one.
//   - open: requests arrive on a fixed -rate schedule regardless of
//     completions, the way independent clients behave; overload shows up as
//     429s rather than slowdown.
//   - spike: a deliberate overload — closed-loop with the worker count
//     multiplied (8x -concurrency, at least 32) so the admission queue
//     saturates and latency blows through the SLO. This is the mode that
//     provokes the serve-side diagnostic trigger engine (roaserve -diag-dir)
//     into capturing a bundle; shed load (429/503) is expected, not an error.
//   - swarm: multi-venue open-loop load against a roaserve started with
//     -venues. Requires the same manifest (-venues); per-request venues are
//     drawn from a Zipf popularity law (-zipf-s), the realistic skew where a
//     few venues are hot and a long tail is cold, so the server's LRU venue
//     cache sees genuine churn. Payloads are synthesized per venue from the
//     manifest geometry with per-venue seeds; arrivals follow -rate.
//   - walk: -walkers concurrent moving targets, each walking a seeded
//     waypoint trajectory through the preset's venue and streaming its
//     epochs to /v1/track over one sticky session (server-minted session id,
//     monotonic seq, per-epoch timestamps). The summary adds along-track
//     RMSE against ground truth, windowed/fallback/re-acquisition counts,
//     and a session-integrity error count; -max-rmse turns the RMSE into a
//     gate.
//
// The request mix is -distinct synthetic workloads drawn from the same
// preset the server was started with (dimensions must match), each from a
// seeded RNG, so runs are reproducible. The summary goes to stdout as one
// JSON line (pipe through jq); -out additionally writes it indented to a
// file for BENCH_*.json trajectory tracking. -min-ok and -min-mean-batch
// turn the run into a gate: the exit status is non-zero if the service
// completed fewer requests or coalesced less than required.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"roarray/internal/core"
	"roarray/internal/obs"
	"roarray/internal/serve"
	"roarray/internal/testbed"
	"roarray/internal/venue"
)

// Summary is the JSON bench line.
type Summary struct {
	Tool        string  `json:"tool"`
	Mode        string  `json:"mode"`
	Preset      string  `json:"preset"`
	Concurrency int     `json:"concurrency,omitempty"`
	RateRPS     float64 `json:"rateRps,omitempty"`
	Distinct    int     `json:"distinct"`
	Packets     int     `json:"packets"`
	Seed        int64   `json:"seed"`
	GOMAXPROCS  int     `json:"gomaxprocs"`

	// Swarm mode only: venue count in the manifest, the Zipf skew parameter,
	// and per-venue completed-request counts.
	Venues  int              `json:"venues,omitempty"`
	ZipfS   float64          `json:"zipfS,omitempty"`
	VenueOK map[string]int64 `json:"venueOk,omitempty"`

	// Walk mode only: walker/epoch shape, along-track accuracy of the
	// smoothed estimates against ground truth, how the server's search split
	// between windowed/fallback/re-acquired epochs, and session-integrity
	// violations (session id drift, seq accepted out of order).
	Walkers         int     `json:"walkers,omitempty"`
	Epochs          int     `json:"epochs,omitempty"`
	TrackRMSEM      float64 `json:"trackRmseM,omitempty"`
	TrackWindowed   int64   `json:"trackWindowed,omitempty"`
	TrackFallback   int64   `json:"trackFallback,omitempty"`
	TrackReacquired int64   `json:"trackReacquired,omitempty"`
	SessionErrors   int64   `json:"sessionErrors,omitempty"`
	// TrackFallbackGate and TrackFallbackEdge split TrackFallback by why
	// the windowed attempt was rejected: the NIS gate, or an argmin on the
	// window edge.
	TrackFallbackGate int64 `json:"trackFallbackGate,omitempty"`
	TrackFallbackEdge int64 `json:"trackFallbackEdge,omitempty"`

	DurationSeconds float64 `json:"durationSeconds"`
	Requests        int64   `json:"requests"`
	OK              int64   `json:"ok"`
	Rejected429     int64   `json:"rejected429"`
	Rejected503     int64   `json:"rejected503"`
	Timeout504      int64   `json:"timeout504"`
	TransportErrors int64   `json:"transportErrors"`
	OtherErrors     int64   `json:"otherErrors"`

	ThroughputRPS   float64 `json:"throughputRps"`
	LatencyMsMean   float64 `json:"latencyMsMean"`
	LatencyMsP50    float64 `json:"latencyMsP50"`
	LatencyMsP95    float64 `json:"latencyMsP95"`
	LatencyMsP99    float64 `json:"latencyMsP99"`
	MeanBatchSize   float64 `json:"meanBatchSize"`
	MeanQueueMillis float64 `json:"meanQueueMillis"`

	// SLOLatencyMs is the latency objective attainment was judged against;
	// SLOAttainment is the fraction of all issued requests that completed OK
	// within it (rejections and errors count against it, client-side).
	SLOLatencyMs  float64 `json:"sloLatencyMs"`
	SLOAttainment float64 `json:"sloAttainment"`
	// IDMismatches counts responses whose X-Request-Id header or body
	// requestId did not echo the id the client sent — any nonzero value means
	// the trace/log join key is broken.
	IDMismatches int64 `json:"idMismatches"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "roaload:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("roaload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "", "target host:port of a running roaserve")
	addrFile := fs.String("addr-file", "", "read the target address from this file (written by roaserve -addr-file)")
	mode := fs.String("mode", "closed", `arrival model: "closed" (workers back-to-back), "open" (fixed rate), "spike" (deliberate overload), "swarm" (multi-venue mix), or "walk" (moving targets over /v1/track)`)
	concurrency := fs.Int("concurrency", 8, "closed-loop worker count")
	rate := fs.Float64("rate", 20, "open-loop arrival rate, requests/second")
	duration := fs.Duration("duration", 5*time.Second, "how long to offer load")
	maxRequests := fs.Int64("requests", 0, "stop after this many requests (0 = duration only)")
	distinct := fs.Int("distinct", 8, "distinct request payloads in the mix")
	packets := fs.Int("packets", 0, "CSI packets per link (0 = preset default)")
	preset := fs.String("preset", "smoke", "workload preset; must match the server's")
	seed := fs.Int64("seed", 1, "base RNG seed for the request mix")
	deadlineMillis := fs.Float64("deadline-ms", 0, "per-request deadline sent in the body (0 = none)")
	out := fs.String("out", "", "also write the summary, indented, to this file")
	minOK := fs.Int64("min-ok", 0, "gate: fail unless at least this many requests completed")
	minMeanBatch := fs.Float64("min-mean-batch", 0, "gate: fail unless the mean observed batch size reaches this")
	sloLatencyMs := fs.Float64("slo-latency-ms", 0, "SLO latency objective in ms for attainment (0 = preset default)")
	sloOK := fs.Float64("slo-ok", 0, "gate: fail unless SLO attainment reaches this fraction (0 = no gate)")
	venuesFile := fs.String("venues", "", "venue manifest for swarm mode (must match the server's)")
	zipfS := fs.Float64("zipf-s", 1.2, "swarm venue popularity skew (Zipf exponent, > 1)")
	minVenues := fs.Int("min-venues", 0, "gate: fail unless at least this many distinct venues completed a request")
	walkers := fs.Int("walkers", 4, "walk mode: concurrent moving targets")
	epochs := fs.Int("epochs", 12, "walk mode: trajectory epochs per walker")
	epochInterval := fs.Duration("epoch-interval", 0, "walk mode: client-side pause between a walker's epochs")
	maxRMSE := fs.Float64("max-rmse", 0, "walk mode gate: fail if along-track RMSE exceeds this many meters (0 = no gate)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *mode {
	case "closed", "open", "spike", "swarm", "walk":
	default:
		return fmt.Errorf("unknown -mode %q", *mode)
	}
	if *mode == "swarm" && *venuesFile == "" {
		return fmt.Errorf("-mode swarm requires -venues")
	}
	target, err := resolveAddr(*addr, *addrFile)
	if err != nil {
		return err
	}
	url := "http://" + target + "/v1/localize"

	ps, err := serve.LookupPreset(*preset)
	if err != nil {
		return err
	}
	npackets := *packets
	if npackets <= 0 {
		npackets = ps.Packets
	}

	// The request mix: single-venue modes draw -distinct payloads from the
	// preset's deployment; swarm mode synthesizes -distinct payloads per venue
	// from the manifest's own geometry, each venue from its own seed stream;
	// walk mode generates one seeded trajectory (and its per-epoch bursts)
	// per walker.
	var venueIDs []string
	var venueBodies [][][]byte
	var bodies [][]byte
	var walks []*walkerLoad
	if *mode == "walk" {
		fmt.Fprintf(stderr, "roaload: building %d walker trajectories (%d epochs, preset %s, %d packets)...\n",
			*walkers, *epochs, ps.Name, npackets)
		walks, err = buildWalkers(ps, *walkers, *epochs, npackets, *seed, *deadlineMillis)
		if err != nil {
			return fmt.Errorf("synthesize walkers: %w", err)
		}
	} else if *mode == "swarm" {
		man, err := venue.LoadManifest(*venuesFile)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "roaload: building %d payloads for each of %d venues (%d packets)...\n",
			*distinct, len(man.Venues), npackets)
		for vi, spec := range man.Venues {
			reqs, _, err := spec.Deployment().BatchRequests(*distinct, npackets, testbed.ScenarioConfig{}, *seed+int64(vi)*1000)
			if err != nil {
				return fmt.Errorf("synthesize venue %s: %w", spec.ID, err)
			}
			vb := make([][]byte, len(reqs))
			for i, req := range reqs {
				w := serve.FromCore(req)
				w.VenueID = spec.ID
				w.DeadlineMillis = *deadlineMillis
				vb[i], err = json.Marshal(w)
				if err != nil {
					return err
				}
			}
			venueIDs = append(venueIDs, spec.ID)
			venueBodies = append(venueBodies, vb)
		}
	} else {
		fmt.Fprintf(stderr, "roaload: building %d request payloads (preset %s, %d packets)...\n",
			*distinct, ps.Name, npackets)
		reqs, _, err := ps.Deployment.BatchRequests(*distinct, npackets, testbed.ScenarioConfig{}, *seed)
		if err != nil {
			return fmt.Errorf("synthesize workload: %w", err)
		}
		bodies = make([][]byte, len(reqs))
		for i, req := range reqs {
			w := serve.FromCore(req)
			w.DeadlineMillis = *deadlineMillis
			bodies[i], err = json.Marshal(w)
			if err != nil {
				return err
			}
		}
	}

	fmt.Fprintf(stderr, "roaload: %s-loop against %s for %v\n", *mode, target, *duration)
	objectiveMs := *sloLatencyMs
	if objectiveMs <= 0 {
		objectiveMs = float64(ps.SLO.LatencyObjective) / float64(time.Millisecond)
	}
	agg := newAggregator(objectiveMs)
	client := &http.Client{Timeout: 2 * *duration}
	workers := *concurrency
	if *mode == "spike" {
		// A spike must outrun the queue, not trickle into it: pile on enough
		// closed-loop workers that admission saturates.
		workers *= 8
		if workers < 32 {
			workers = 32
		}
		fmt.Fprintf(stderr, "roaload: spike mode, %d workers\n", workers)
	}
	var ts trackStats
	start := time.Now()
	switch *mode {
	case "walk":
		runWalk(client, "http://"+target+"/v1/track", walks, *epochInterval, *duration, agg, &ts)
	case "swarm":
		runSwarm(client, url, venueIDs, venueBodies, *zipfS, *seed, *rate, *duration, *maxRequests, agg)
	case "open":
		runOpen(client, url, bodies, *rate, *duration, *maxRequests, agg)
	default:
		runClosed(client, url, bodies, workers, *duration, *maxRequests, agg)
	}
	elapsed := time.Since(start)

	sum := agg.summarize(elapsed)
	sum.Mode = *mode
	sum.Preset = ps.Name
	switch *mode {
	case "open", "swarm":
		sum.RateRPS = *rate
	case "walk":
		sum.Walkers = *walkers
		sum.Epochs = *epochs
	default:
		sum.Concurrency = workers
	}
	sum.Distinct = *distinct
	sum.Packets = npackets
	sum.Seed = *seed
	if *mode == "swarm" {
		sum.Venues = len(venueIDs)
		sum.ZipfS = *zipfS
	}
	if *mode == "walk" {
		sum.TrackRMSEM = ts.rmse()
		sum.TrackWindowed = ts.windowed.Load()
		sum.TrackFallback = ts.fallback.Load()
		sum.TrackFallbackGate = ts.fallbackGate.Load()
		sum.TrackFallbackEdge = ts.fallbackEdge.Load()
		sum.TrackReacquired = ts.reacquired.Load()
		sum.SessionErrors = ts.sessionErrs.Load()
	}

	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if *out != "" {
		var buf bytes.Buffer
		if err := json.Indent(&buf, line, "", "  "); err != nil {
			return err
		}
		buf.WriteByte('\n')
		if err := os.WriteFile(*out, buf.Bytes(), 0o644); err != nil {
			return fmt.Errorf("write %s: %w", *out, err)
		}
	}
	if sum.TransportErrors > 0 {
		return fmt.Errorf("%d transport errors against %s", sum.TransportErrors, target)
	}
	if sum.OtherErrors > 0 {
		return fmt.Errorf("%d unexpected error statuses", sum.OtherErrors)
	}
	if sum.OK < *minOK {
		return fmt.Errorf("gate: %d requests completed, need >= %d", sum.OK, *minOK)
	}
	if *minMeanBatch > 0 && sum.MeanBatchSize < *minMeanBatch {
		return fmt.Errorf("gate: mean batch size %.2f, need >= %.2f", sum.MeanBatchSize, *minMeanBatch)
	}
	if sum.IDMismatches > 0 {
		return fmt.Errorf("%d responses did not echo the client's X-Request-Id", sum.IDMismatches)
	}
	if *sloOK > 0 && sum.SLOAttainment < *sloOK {
		return fmt.Errorf("gate: SLO attainment %.4f (<= %.0fms), need >= %.4f",
			sum.SLOAttainment, objectiveMs, *sloOK)
	}
	if *minVenues > 0 {
		served := 0
		for _, n := range sum.VenueOK {
			if n > 0 {
				served++
			}
		}
		if served < *minVenues {
			return fmt.Errorf("gate: %d distinct venues served, need >= %d", served, *minVenues)
		}
	}
	if sum.SessionErrors > 0 {
		return fmt.Errorf("%d session-integrity violations (session id drift or broken seq handling)", sum.SessionErrors)
	}
	if *maxRMSE > 0 && sum.TrackRMSEM > *maxRMSE {
		return fmt.Errorf("gate: along-track RMSE %.2f m, need <= %.2f m", sum.TrackRMSEM, *maxRMSE)
	}
	return nil
}

func resolveAddr(addr, addrFile string) (string, error) {
	if addr != "" {
		return addr, nil
	}
	if addrFile == "" {
		return "", fmt.Errorf("need -addr or -addr-file")
	}
	raw, err := os.ReadFile(addrFile)
	if err != nil {
		return "", fmt.Errorf("read addr file: %w", err)
	}
	target := strings.TrimSpace(string(raw))
	if target == "" {
		return "", fmt.Errorf("addr file %s is empty", addrFile)
	}
	return target, nil
}

// aggregator accumulates per-request observations under one lock; load
// worker goroutines are I/O-bound so contention is negligible.
type aggregator struct {
	objectiveMs float64
	mu          sync.Mutex
	latencies   []float64 // ms, successful requests only
	venueOK     map[string]int64
	batchSum    float64
	queueSum    float64
	ok          int64
	fastOK      int64
	idMismatch  int64
	r429        int64
	r503        int64
	t504        int64
	transport   int64
	otherErrs   int64
	total       int64
}

func newAggregator(objectiveMs float64) *aggregator {
	return &aggregator{objectiveMs: objectiveMs, venueOK: make(map[string]int64)}
}

func (a *aggregator) record(status int, latency time.Duration, resp *serve.Response, idOK bool, venue string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.total++
	if !idOK {
		a.idMismatch++
	}
	switch status {
	case http.StatusOK:
		a.ok++
		if venue != "" {
			a.venueOK[venue]++
		}
		ms := latency.Seconds() * 1e3
		a.latencies = append(a.latencies, ms)
		if a.objectiveMs > 0 && ms <= a.objectiveMs {
			a.fastOK++
		}
		if resp != nil {
			a.batchSum += float64(resp.BatchSize)
			a.queueSum += resp.QueueMillis
		}
	case http.StatusTooManyRequests:
		a.r429++
	case http.StatusServiceUnavailable:
		a.r503++
	case http.StatusGatewayTimeout:
		a.t504++
	case -1:
		a.transport++
	default:
		a.otherErrs++
	}
}

func (a *aggregator) summarize(elapsed time.Duration) Summary {
	a.mu.Lock()
	defer a.mu.Unlock()
	sort.Float64s(a.latencies)
	pct := func(p float64) float64 {
		if len(a.latencies) == 0 {
			return 0
		}
		idx := int(math.Ceil(p*float64(len(a.latencies)))) - 1
		if idx < 0 {
			idx = 0
		}
		return a.latencies[idx]
	}
	mean := 0.0
	for _, l := range a.latencies {
		mean += l
	}
	if len(a.latencies) > 0 {
		mean /= float64(len(a.latencies))
	}
	sum := Summary{
		Tool:            "roaload",
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		DurationSeconds: elapsed.Seconds(),
		Requests:        a.total,
		OK:              a.ok,
		Rejected429:     a.r429,
		Rejected503:     a.r503,
		Timeout504:      a.t504,
		TransportErrors: a.transport,
		OtherErrors:     a.otherErrs,
		LatencyMsMean:   mean,
		LatencyMsP50:    pct(0.50),
		LatencyMsP95:    pct(0.95),
		LatencyMsP99:    pct(0.99),
	}
	if elapsed > 0 {
		sum.ThroughputRPS = float64(a.ok) / elapsed.Seconds()
	}
	if a.ok > 0 {
		sum.MeanBatchSize = a.batchSum / float64(a.ok)
		sum.MeanQueueMillis = a.queueSum / float64(a.ok)
	}
	sum.SLOLatencyMs = a.objectiveMs
	sum.IDMismatches = a.idMismatch
	if a.total > 0 {
		sum.SLOAttainment = float64(a.fastOK) / float64(a.total)
	}
	if len(a.venueOK) > 0 {
		sum.VenueOK = make(map[string]int64, len(a.venueOK))
		for k, v := range a.venueOK {
			sum.VenueOK[k] = v
		}
	}
	return sum
}

// post issues one request — tagged with a fresh X-Request-Id — and records
// its outcome, verifying the server echoed the id on the header (every
// status) and in the body (200s): the round trip that makes client logs
// joinable against server traces, events, and exemplars.
func post(client *http.Client, url string, body []byte, venue string, agg *aggregator) {
	rid := obs.NewRequestID()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		agg.record(-1, 0, nil, true, venue)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", rid)
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		agg.record(-1, 0, nil, true, venue)
		return
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	latency := time.Since(t0)
	if err != nil {
		agg.record(-1, 0, nil, true, venue)
		return
	}
	idOK := resp.Header.Get("X-Request-Id") == rid
	if resp.StatusCode != http.StatusOK {
		agg.record(resp.StatusCode, latency, nil, idOK, venue)
		return
	}
	var sr serve.Response
	if err := json.Unmarshal(raw, &sr); err != nil {
		agg.record(-2, latency, nil, idOK, venue)
		return
	}
	agg.record(http.StatusOK, latency, &sr, idOK && sr.RequestID == rid, venue)
}

// runClosed: workers issue requests back-to-back until the deadline (or the
// request cap) is reached.
func runClosed(client *http.Client, url string, bodies [][]byte, workers int, d time.Duration, maxReqs int64, agg *aggregator) {
	deadline := time.Now().Add(d)
	var issued atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				n := issued.Add(1)
				if maxReqs > 0 && n > maxReqs {
					return
				}
				post(client, url, bodies[int(n-1)%len(bodies)], "", agg)
			}
		}()
	}
	wg.Wait()
}

// runOpen: requests start on a fixed schedule regardless of completions;
// each in its own goroutine so a slow server cannot throttle the arrival
// process.
func runOpen(client *http.Client, url string, bodies [][]byte, rate float64, d time.Duration, maxReqs int64, agg *aggregator) {
	if rate <= 0 {
		return
	}
	interval := time.Duration(float64(time.Second) / rate)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	deadline := time.Now().Add(d)
	var issued int64
	var wg sync.WaitGroup
	for time.Now().Before(deadline) {
		<-ticker.C
		if maxReqs > 0 && issued >= maxReqs {
			break
		}
		body := bodies[int(issued)%len(bodies)]
		issued++
		wg.Add(1)
		go func() {
			defer wg.Done()
			post(client, url, body, "", agg)
		}()
	}
	wg.Wait()
}

// walkerLoad is one moving target's prepared workload: the wire-format epoch
// requests (session id left blank — the server mints it on the first epoch)
// and the ground-truth position per epoch.
type walkerLoad struct {
	epochs []*serve.TrackRequest
	truth  []core.Point
}

// trackStats accumulates walk-mode outcomes across walker goroutines.
type trackStats struct {
	windowed    atomic.Int64
	fallback    atomic.Int64
	reacquired  atomic.Int64
	sessionErrs atomic.Int64
	// fallbackGate and fallbackEdge split fallback by cause.
	fallbackGate, fallbackEdge atomic.Int64

	mu    sync.Mutex
	sumSq float64
	n     int64
}

func (t *trackStats) observeErr(d float64) {
	t.mu.Lock()
	t.sumSq += d * d
	t.n++
	t.mu.Unlock()
}

func (t *trackStats) rmse() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n == 0 {
		return 0
	}
	return math.Sqrt(t.sumSq / float64(t.n))
}

// buildWalkers synthesizes one seeded trajectory per walker over the
// preset's deployment, with per-epoch CSI bursts, ready to stream to
// /v1/track. Walker w draws from its own seed stream, so a (seed, walkers,
// epochs) triple is reproducible.
func buildWalkers(ps *serve.Preset, walkers, epochs, packets int, seed int64, deadlineMillis float64) ([]*walkerLoad, error) {
	out := make([]*walkerLoad, 0, walkers)
	for wi := 0; wi < walkers; wi++ {
		traj, err := ps.Deployment.GenerateTrajectory(testbed.TrajectoryPlan{Epochs: epochs}, seed+int64(wi)*101)
		if err != nil {
			return nil, fmt.Errorf("walker %d trajectory: %w", wi, err)
		}
		reqs, truth, err := ps.Deployment.TrajectoryRequests(traj, packets, testbed.ScenarioConfig{}, seed+int64(wi)*1000)
		if err != nil {
			return nil, fmt.Errorf("walker %d bursts: %w", wi, err)
		}
		wl := &walkerLoad{truth: truth}
		for e, req := range reqs {
			w := serve.FromCore(req)
			w.DeadlineMillis = deadlineMillis
			wl.epochs = append(wl.epochs, &serve.TrackRequest{
				Request:  *w,
				Seq:      int64(e + 1),
				TSeconds: traj.Points[e].T,
			})
		}
		out = append(out, wl)
	}
	return out, nil
}

// runWalk streams every walker's epochs concurrently, one sticky session per
// walker: the first epoch lets the server mint the session id, later epochs
// send it back with strictly increasing seqs. A failed epoch burns its seq
// (the session survives; the epoch is not replayable) and the walk moves on.
func runWalk(client *http.Client, url string, walks []*walkerLoad, interval, d time.Duration, agg *aggregator, ts *trackStats) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for _, wl := range walks {
		wg.Add(1)
		go func(wl *walkerLoad) {
			defer wg.Done()
			sid := ""
			for e, tw := range wl.epochs {
				if !time.Now().Before(deadline) {
					return
				}
				tw.SessionID = sid
				tr, ok := postTrackEpoch(client, url, tw, agg)
				if ok {
					switch {
					case tr.SessionID == "":
						ts.sessionErrs.Add(1)
					case sid == "":
						sid = tr.SessionID
					case tr.SessionID != sid:
						ts.sessionErrs.Add(1)
					}
					if tr.Seq != tw.Seq {
						ts.sessionErrs.Add(1)
					}
					ts.observeErr(math.Hypot(tr.SmoothedX-wl.truth[e].X, tr.SmoothedY-wl.truth[e].Y))
					if tr.Windowed {
						ts.windowed.Add(1)
					}
					if tr.Fallback {
						ts.fallback.Add(1)
						switch tr.FallbackCause {
						case "gate":
							ts.fallbackGate.Add(1)
						case "edge":
							ts.fallbackEdge.Add(1)
						}
					}
					if tr.Reacquired {
						ts.reacquired.Add(1)
					}
				}
				if interval > 0 && e < len(wl.epochs)-1 {
					time.Sleep(interval)
				}
			}
		}(wl)
	}
	wg.Wait()
}

// postTrackEpoch issues one tracking epoch and records its outcome in the
// shared aggregator; ok is true only for a decoded 200.
func postTrackEpoch(client *http.Client, url string, tw *serve.TrackRequest, agg *aggregator) (*serve.TrackResponse, bool) {
	body, err := json.Marshal(tw)
	if err != nil {
		agg.record(-1, 0, nil, true, "")
		return nil, false
	}
	rid := obs.NewRequestID()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		agg.record(-1, 0, nil, true, "")
		return nil, false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", rid)
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		agg.record(-1, 0, nil, true, "")
		return nil, false
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	latency := time.Since(t0)
	if err != nil {
		agg.record(-1, 0, nil, true, "")
		return nil, false
	}
	idOK := resp.Header.Get("X-Request-Id") == rid
	if resp.StatusCode != http.StatusOK {
		agg.record(resp.StatusCode, latency, nil, idOK, "")
		return nil, false
	}
	var tr serve.TrackResponse
	if err := json.Unmarshal(raw, &tr); err != nil {
		agg.record(-2, latency, nil, idOK, "")
		return nil, false
	}
	agg.record(http.StatusOK, latency, &tr.Response, idOK && tr.RequestID == rid, "")
	return &tr, true
}

// runSwarm: open-loop arrivals where each request's venue is drawn from a
// Zipf popularity law over the manifest order (venue 0 hottest). The venue
// sampler is seeded, so a given (-seed, -zipf-s, manifest) triple replays the
// same churn pattern against the server's LRU venue cache.
func runSwarm(client *http.Client, url string, venueIDs []string, venueBodies [][][]byte, s float64, seed int64, rate float64, d time.Duration, maxReqs int64, agg *aggregator) {
	if rate <= 0 || len(venueIDs) == 0 {
		return
	}
	if s <= 1 {
		s = 1.001 // rand.NewZipf requires s > 1
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, s, 1, uint64(len(venueIDs)-1))
	interval := time.Duration(float64(time.Second) / rate)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	deadline := time.Now().Add(d)
	var issued int64
	var wg sync.WaitGroup
	for time.Now().Before(deadline) {
		<-ticker.C
		if maxReqs > 0 && issued >= maxReqs {
			break
		}
		vi := int(zipf.Uint64())
		id := venueIDs[vi]
		body := venueBodies[vi][int(issued)%len(venueBodies[vi])]
		issued++
		wg.Add(1)
		go func() {
			defer wg.Done()
			post(client, url, body, id, agg)
		}()
	}
	wg.Wait()
}
