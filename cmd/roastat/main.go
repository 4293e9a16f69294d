// Command roastat inspects the serving layer's request-centric telemetry:
// it renders /metrics snapshots (live URL or saved file) as RED and SLO
// burn-rate tables, diffs two snapshots into an interval view, polls a live
// endpoint in watch mode, and filters request-event / trace JSONL files by
// request id — the join key the server stamps on every telemetry surface.
//
// Usage:
//
//	roastat -metrics http://127.0.0.1:8092/metrics
//	roastat -metrics before.json -diff after.json
//	roastat -metrics http://127.0.0.1:8092/metrics -watch 2s -count 5
//	roastat -events events.jsonl -req 3f9ac21b547d6e80
//	roastat -events trace.jsonl  -req 3f9ac21b547d6e80
//	roastat -bundle diag/                       # newest bundle under diag/
//	roastat -bundle diag/bundle-20260808T...    # one specific bundle
//
// A snapshot render has three sections: the RED counters (request rate,
// errors, batching), every histogram with bucket-interpolated p50/p95 plus
// the exemplar of its slowest occupied bucket (the request to go pull the
// trace for), and the SLO windows with availability / latency attainment and
// burn rates. -diff and -watch difference cumulative counters and histogram
// buckets (obs.HistogramSnapshot.Sub) so quantiles describe the interval,
// not the process lifetime; gauges — already windowed — keep their newer
// value. -events works on both telemetry JSONL shapes: request events match
// on "id", trace spans on "req"; the exit status is non-zero when nothing
// matched, so scripts can gate on a request having left records.
//
// -bundle renders an anomaly-triggered diagnostic bundle (written by roaserve
// -diag-dir) as a triage report: the trigger reason, the runtime trend
// leading into the capture, the slowest requests in the flight ring (marked
// when a /metrics exemplar points at the same request), the captured pprof
// profiles, and the full metrics snapshot at capture time.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"roarray/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "roastat:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("roastat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	metrics := fs.String("metrics", "", "metrics source: a /metrics URL (http[s]://...) or a saved snapshot file")
	diff := fs.String("diff", "", "newer snapshot file; render the interval (-diff minus -metrics)")
	watch := fs.Duration("watch", 0, "poll -metrics at this interval and render per-interval deltas")
	count := fs.Int("count", 0, "with -watch, stop after this many intervals (0 = forever)")
	events := fs.String("events", "", "filter a request-event or trace JSONL file by -req instead of reading metrics")
	req := fs.String("req", "", "request id to select -events records by")
	raw := fs.Bool("raw", false, "dump the -metrics snapshot as raw JSON (for saving and later -diff) instead of rendering")
	bundle := fs.String("bundle", "", "render a diagnostic bundle directory (or the newest bundle under it) as a triage report")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *bundle != "" {
		return renderBundle(*bundle, stdout)
	}
	if *events != "" {
		if *req == "" {
			return fmt.Errorf("-events needs -req <request-id>")
		}
		return filterEvents(*events, *req, stdout)
	}
	if *metrics == "" {
		return fmt.Errorf("need -metrics <url|file> or -events <file> -req <id>")
	}

	if *raw {
		b, err := loadRaw(*metrics)
		if err != nil {
			return err
		}
		if _, err := parseSnapshot(b); err != nil {
			return err
		}
		_, err = stdout.Write(b)
		return err
	}
	if *watch > 0 {
		return watchMetrics(*metrics, *watch, *count, stdout)
	}

	cur, err := loadSnapshot(*metrics)
	if err != nil {
		return err
	}
	if *diff != "" {
		newer, err := loadSnapshot(*diff)
		if err != nil {
			return err
		}
		render(stdout, newer.sub(cur), fmt.Sprintf("interval %s .. %s", *metrics, *diff))
		return nil
	}
	render(stdout, cur, *metrics)
	return nil
}

// snapshot is a parsed /metrics payload: the registry's flat JSON object
// split into scalars (counters and gauges, indistinguishable on the wire)
// and histograms.
type snapshot struct {
	scalars map[string]float64
	hists   map[string]obs.HistogramSnapshot
}

func loadSnapshot(src string) (*snapshot, error) {
	raw, err := loadRaw(src)
	if err != nil {
		return nil, err
	}
	return parseSnapshot(raw)
}

// loadRaw fetches the snapshot bytes from a /metrics URL or a saved file.
func loadRaw(src string) ([]byte, error) {
	if strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://") {
		client := &http.Client{Timeout: 10 * time.Second}
		resp, err := client.Get(src)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("%s: HTTP %d", src, resp.StatusCode)
		}
		return io.ReadAll(resp.Body)
	}
	return os.ReadFile(src)
}

func parseSnapshot(raw []byte) (*snapshot, error) {
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("parse metrics snapshot: %w", err)
	}
	s := &snapshot{scalars: map[string]float64{}, hists: map[string]obs.HistogramSnapshot{}}
	for name, v := range m {
		t := bytes.TrimSpace(v)
		if len(t) > 0 && t[0] == '{' {
			var h obs.HistogramSnapshot
			if err := json.Unmarshal(v, &h); err != nil {
				return nil, fmt.Errorf("histogram %s: %w", name, err)
			}
			s.hists[name] = h
			continue
		}
		var f float64
		if err := json.Unmarshal(v, &f); err != nil {
			continue // not a metric shape we know; skip
		}
		s.scalars[name] = f
	}
	return s, nil
}

// sub returns the interval view s minus prev: cumulative counters (the
// "_total" naming convention) and histogram buckets are differenced, gauges
// keep their newer value — SLO gauges are already rolling-window figures and
// differencing them would be meaningless.
func (s *snapshot) sub(prev *snapshot) *snapshot {
	out := &snapshot{scalars: map[string]float64{}, hists: map[string]obs.HistogramSnapshot{}}
	for name, v := range s.scalars {
		if strings.HasSuffix(name, "_total") {
			d := v - prev.scalars[name]
			if d < 0 {
				d = 0 // counter reset (restart) between snapshots
			}
			out.scalars[name] = d
			continue
		}
		out.scalars[name] = v
	}
	for name, h := range s.hists {
		out.hists[name] = h.Sub(prev.hists[name])
	}
	return out
}

// redRows names the serving counters in the order the RED table prints them.
var redRows = []struct{ metric, label string }{
	{"serve.accepted_total", "accepted"},
	{"serve.completed_total", "completed ok"},
	{"serve.failed_total", "failed"},
	{"serve.rejected_queue_full_total", "rejected 429 (queue full)"},
	{"serve.rejected_draining_total", "rejected 503 (draining)"},
	{"serve.batches_total", "batches flushed"},
	{"serve.panics_total", "batch panics"},
	{"obs.eventlog.dropped_total", "events dropped"},
}

func render(w io.Writer, s *snapshot, label string) {
	fmt.Fprintf(w, "== roastat: %s ==\n", label)

	rendered := false
	for _, row := range redRows {
		v, ok := s.scalars[row.metric]
		if !ok {
			continue
		}
		if !rendered {
			fmt.Fprintln(w, "-- requests --")
			rendered = true
		}
		fmt.Fprintf(w, "  %-26s %.0f\n", row.label, v)
	}

	renderVenues(w, s)
	renderTrack(w, s)

	names := make([]string, 0, len(s.hists))
	for name := range s.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Fprintln(w, "-- latency / distributions --")
	}
	for _, name := range names {
		h := s.hists[name]
		secs := strings.HasSuffix(name, ".seconds")
		fmt.Fprintf(w, "  %-26s count %-7d p50 %-10s p95 %-10s mean %s\n",
			name, h.Count, fmtVal(h.P50, secs), fmtVal(h.P95, secs), fmtVal(mean(h), secs))
		if bound, id, ok := slowestExemplar(h); ok {
			fmt.Fprintf(w, "  %-26s slowest occupied bucket <= %s: request %s\n", "", fmtVal(bound, secs), id)
		}
	}

	renderSLO(w, s)
}

// renderVenues prints one RED row per venue (multi-venue servers export
// serve.venue.<id>.* — venue ids are restricted to [A-Za-z0-9_-], so
// splitting on the fixed prefix and suffix is unambiguous) plus the venue
// cache's hit/miss/eviction counters and residency gauges when present.
func renderVenues(w io.Writer, s *snapshot) {
	const prefix, suffix = "serve.venue.", ".requests_total"
	var ids []string
	for name := range s.scalars {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			ids = append(ids, name[len(prefix):len(name)-len(suffix)])
		}
	}
	if len(ids) > 0 {
		sort.Strings(ids)
		fmt.Fprintln(w, "-- venues --")
		fmt.Fprintf(w, "  %-20s %-9s %-9s %-8s %-10s %s\n",
			"venue", "requests", "ok", "errors", "p50", "p95")
		for _, id := range ids {
			h := s.hists[prefix+id+".e2e.seconds"]
			fmt.Fprintf(w, "  %-20s %-9.0f %-9.0f %-8.0f %-10s %s\n",
				id,
				s.scalars[prefix+id+suffix],
				s.scalars[prefix+id+".ok_total"],
				s.scalars[prefix+id+".errors_total"],
				fmtVal(h.P50, true), fmtVal(h.P95, true))
		}
	}
	if _, ok := s.scalars["venue.cache.loads_total"]; ok {
		fmt.Fprintln(w, "-- venue cache --")
		for _, row := range []struct{ metric, label string }{
			{"venue.cache.hits_total", "hits"},
			{"venue.cache.misses_total", "misses"},
			{"venue.cache.evictions_total", "evictions"},
			{"venue.cache.load_dedup_total", "deduped loads"},
			{"venue.cache.load_errors_total", "load errors"},
			{"venue.cache.resident", "resident shapes"},
			{"venue.cache.bytes", "resident bytes"},
		} {
			if v, ok := s.scalars[row.metric]; ok {
				fmt.Fprintf(w, "  %-26s %.0f\n", row.label, v)
			}
		}
	}
}

// renderTrack prints the /v1/track session surface: epoch outcomes (windowed
// vs fallback vs re-acquired, with the engine's fallbacks split by cause
// when the registry carries them), session lifecycle counts, and the
// live-session gauge. The serve.track.* histograms (end-to-end latency and the windowed
// cells fraction) render with the other distributions below.
func renderTrack(w io.Writer, s *snapshot) {
	if _, ok := s.scalars["serve.track.epochs_total"]; !ok {
		return
	}
	fmt.Fprintln(w, "-- tracking --")
	for _, row := range []struct{ metric, label string }{
		{"serve.track.epochs_total", "epochs"},
		{"serve.track.windowed_total", "windowed"},
		{"serve.track.fallback_total", "fallbacks"},
		{"core.track.fallback_gate_total", "fallbacks (gate)"},
		{"core.track.fallback_edge_total", "fallbacks (edge)"},
		{"serve.track.reacquired_total", "re-acquired"},
		{"serve.track.rejected_out_of_order_total", "rejected (out of order)"},
		{"serve.track.rejected_capacity_total", "rejected (capacity)"},
		{"serve.track.sessions_started_total", "sessions started"},
		{"serve.track.sessions_evicted_total", "sessions evicted"},
		{"serve.track.sessions", "sessions live"},
	} {
		if v, ok := s.scalars[row.metric]; ok {
			fmt.Fprintf(w, "  %-26s %.0f\n", row.label, v)
		}
	}
}

func renderSLO(w io.Writer, s *snapshot) {
	target, ok := s.scalars["slo.target"]
	if !ok {
		return
	}
	fmt.Fprintf(w, "-- SLO: target %.2f%%, latency objective %s --\n",
		target*100, fmtVal(s.scalars["slo.latency_objective_ms"]/1e3, true))
	fmt.Fprintf(w, "  %-6s %-9s %-13s %-13s %-12s %s\n",
		"window", "requests", "availability", "latency-att", "burn(avail)", "burn(latency)")
	for _, win := range obs.SLOWindows {
		reqs, ok := s.scalars["slo.requests."+win.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-6s %-9.0f %-13s %-13s %-12.2f %.2f\n",
			win.Name, reqs,
			fmt.Sprintf("%.2f%%", s.scalars["slo.availability."+win.Name]*100),
			fmt.Sprintf("%.2f%%", s.scalars["slo.latency_attainment."+win.Name]*100),
			s.scalars["slo.burn_rate.availability."+win.Name],
			s.scalars["slo.burn_rate.latency."+win.Name])
	}
}

// slowestExemplar returns the deepest occupied bucket that has a request
// attributed to it — the concrete slow request worth pulling the trace for.
func slowestExemplar(h obs.HistogramSnapshot) (bound float64, id string, ok bool) {
	for i := len(h.Counts) - 1; i >= 0; i-- {
		if h.Counts[i] == 0 || i >= len(h.Exemplars) || h.Exemplars[i] == "" {
			continue
		}
		if i < len(h.Bounds) {
			return h.Bounds[i], h.Exemplars[i], true
		}
		// Overflow bucket: no upper edge; report the last bound as the floor.
		if len(h.Bounds) > 0 {
			return h.Bounds[len(h.Bounds)-1], h.Exemplars[i], true
		}
		return 0, h.Exemplars[i], true
	}
	return 0, "", false
}

func mean(h obs.HistogramSnapshot) float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// fmtVal renders a metric value; values from ".seconds" histograms print as
// human durations (most are milliseconds at the smoke working point).
func fmtVal(v float64, seconds bool) string {
	if !seconds {
		return fmt.Sprintf("%.3g", v)
	}
	switch {
	case v >= 1:
		return fmt.Sprintf("%.2fs", v)
	case v >= 0.001:
		return fmt.Sprintf("%.1fms", v*1e3)
	default:
		return fmt.Sprintf("%.0fus", v*1e6)
	}
}

func watchMetrics(src string, interval time.Duration, count int, stdout io.Writer) error {
	prev, err := loadSnapshot(src)
	if err != nil {
		return err
	}
	for i := 0; count == 0 || i < count; i++ {
		time.Sleep(interval)
		cur, err := loadSnapshot(src)
		if err != nil {
			return err
		}
		render(stdout, cur.sub(prev), fmt.Sprintf("%s, interval %v", src, interval))
		prev = cur
	}
	return nil
}

// filterEvents streams a JSONL telemetry file and prints the records tied to
// one request id. Request events carry the id in "id", trace spans in "req";
// matching both means the same invocation works on either file. Lines that
// do not parse as JSON objects are skipped (a crashed writer can leave a
// torn tail line).
func filterEvents(path, id string, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	matched := 0
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			continue
		}
		if m["id"] == id || m["req"] == id {
			fmt.Fprintln(stdout, string(line))
			matched++
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if matched == 0 {
		return fmt.Errorf("no records for request id %q in %s", id, path)
	}
	return nil
}
