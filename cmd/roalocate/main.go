// Command roalocate runs the Eq. 19 RSSI-weighted AoA localization on
// observations supplied as JSON — the integration point for deployments
// that estimate per-AP direct-path AoAs elsewhere (e.g. with the roarray
// library against real CSI) and need the fusion step as a tool.
//
// Usage:
//
//	roalocate -input observations.json [-step 0.1] [-parallel 8] [-search coarse|flat|exact]
//	roalocate -sample > observations.json    # print a sample input
//	roalocate -input obs.json -trace run.jsonl -metrics-addr :8080
//
// Input format:
//
//	{
//	  "room": {"minX": 0, "minY": 0, "maxX": 18, "maxY": 12},
//	  "gridStepMeters": 0.1,
//	  "observations": [
//	    {"x": 0.1, "y": 6, "axisDeg": 90, "aoaDeg": 100.5, "rssiDbm": -61.2},
//	    {"x": 17.9, "y": 6, "axisDeg": 90, "aoaDeg": 140.0, "rssiDbm": -55.0}
//	  ]
//	}
//
// Output is a single JSON object with the estimated position.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"roarray"
)

// request is the JSON input schema.
type request struct {
	Room           roomSpec  `json:"room"`
	GridStepMeters float64   `json:"gridStepMeters"`
	Observations   []obsSpec `json:"observations"`
}

type roomSpec struct {
	MinX float64 `json:"minX"`
	MinY float64 `json:"minY"`
	MaxX float64 `json:"maxX"`
	MaxY float64 `json:"maxY"`
}

type obsSpec struct {
	X       float64 `json:"x"`
	Y       float64 `json:"y"`
	AxisDeg float64 `json:"axisDeg"`
	AoADeg  float64 `json:"aoaDeg"`
	RSSIdBm float64 `json:"rssiDbm"`
}

// response is the JSON output schema.
type response struct {
	// RequestID tags the run: the -request-id flag's value (sanitized) or a
	// minted id. Spans in the -trace file carry the same id.
	RequestID      string  `json:"requestId"`
	X              float64 `json:"x"`
	Y              float64 `json:"y"`
	Observations   int     `json:"observations"`
	SearchMode     string  `json:"searchMode"`
	CellsEvaluated int     `json:"cellsEvaluated"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "roalocate:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("roalocate", flag.ContinueOnError)
	input := fs.String("input", "-", "path to the observations JSON ('-' for stdin)")
	step := fs.Float64("step", 0, "grid step in meters (overrides gridStepMeters; 0 keeps the file's value)")
	sample := fs.Bool("sample", false, "print a sample input document and exit")
	parallel := fs.Int("parallel", 1, "grid-search worker count (0 or negative = GOMAXPROCS); the answer is identical for any value")
	search := fs.String("search", "coarse", "grid-search strategy: coarse (multi-resolution), flat (exhaustive), exact (run both, cross-check); the answer is identical for all")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /debug/vars, and /debug/pprof on this address during the run")
	traceFile := fs.String("trace", "", "write a JSONL span trace of the grid search to this file")
	requestID := fs.String("request-id", "", "tag the run with this request id (empty = mint one); echoed in the output and on every trace span")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sample {
		return printSample(stdout)
	}

	reg := roarray.NewMetrics()
	if *metricsAddr != "" {
		srv, err := roarray.ServeDebug(*metricsAddr, reg)
		if err != nil {
			return fmt.Errorf("metrics server: %w", err)
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "roalocate: metrics on http://%s/metrics\n", srv.Addr())
	}
	rid := roarray.SanitizeRequestID(*requestID)
	if rid == "" {
		rid = roarray.NewRequestID()
	}
	ctx := roarray.WithRequestID(context.Background(), rid)
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return fmt.Errorf("create trace file: %w", err)
		}
		defer f.Close()
		ctx = roarray.WithTracer(ctx, roarray.NewTracer(f))
	}

	var raw []byte
	var err error
	if *input == "-" {
		raw, err = io.ReadAll(stdin)
	} else {
		raw, err = os.ReadFile(*input)
	}
	if err != nil {
		return fmt.Errorf("read input: %w", err)
	}

	var req request
	if err := json.Unmarshal(raw, &req); err != nil {
		return fmt.Errorf("parse input: %w", err)
	}
	observations := make([]roarray.APObservation, len(req.Observations))
	for i, o := range req.Observations {
		if o.AoADeg < 0 || o.AoADeg > 180 {
			return fmt.Errorf("observation %d: AoA %v outside [0,180]", i, o.AoADeg)
		}
		observations[i] = roarray.APObservation{
			Pos:     roarray.Point{X: o.X, Y: o.Y},
			AxisDeg: o.AxisDeg,
			AoADeg:  o.AoADeg,
			RSSIdBm: o.RSSIdBm,
		}
	}
	gridStep := req.GridStepMeters
	if *step > 0 {
		gridStep = *step
	}
	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	mode, err := roarray.ParseSearchMode(*search)
	if err != nil {
		return err
	}
	spanCtx, sp := roarray.StartSpan(ctx, "localize.grid")
	start := time.Now()
	pos, stats, err := roarray.Localize(spanCtx, observations, roarray.Rect{
		MinX: req.Room.MinX, MinY: req.Room.MinY,
		MaxX: req.Room.MaxX, MaxY: req.Room.MaxY,
	}, gridStep, workers, roarray.SearchConfig{Mode: mode})
	sp.End()
	if err != nil {
		return err
	}
	reg.Counter("roalocate.requests_total").Inc()
	reg.Histogram("roalocate.grid.seconds").ObserveExemplar(time.Since(start).Seconds(), rid)
	enc := json.NewEncoder(stdout)
	return enc.Encode(response{
		RequestID: rid,
		X:         pos.X, Y: pos.Y, Observations: len(observations),
		SearchMode: stats.Mode, CellsEvaluated: stats.Evaluated(),
	})
}

// printSample writes a plausible input built from the default deployment.
func printSample(w io.Writer) error {
	dep := roarray.DefaultDeployment()
	target := roarray.Point{X: 7.5, Y: 4.5}
	req := request{
		Room: roomSpec{
			MinX: dep.Room.MinX, MinY: dep.Room.MinY,
			MaxX: dep.Room.MaxX, MaxY: dep.Room.MaxY,
		},
		GridStepMeters: 0.1,
	}
	for _, ap := range dep.APs {
		req.Observations = append(req.Observations, obsSpec{
			X: ap.Pos.X, Y: ap.Pos.Y, AxisDeg: ap.AxisDeg,
			AoADeg:  roarray.ExpectedAoA(ap.Pos, ap.AxisDeg, target),
			RSSIdBm: -55,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(req)
}
