// Command roaserve runs the online localization service: an HTTP/JSON front
// end over the batch localization engine with dynamic micro-batching,
// admission control, and graceful drain.
//
// Usage:
//
//	roaserve -addr 127.0.0.1:8092 -preset smoke
//	roaserve -addr :8092 -preset paper -workers 8 -batch-size 16
//	roaserve -addr 127.0.0.1:0 -addr-file /tmp/roaserve.addr   # scripts
//	roaserve -addr :8092 -metrics-addr :8093 -trace spans.jsonl
//	roaserve -addr :8092 -preset paper -warm                  # fast serving
//	roaserve -addr :8092 -venues venues.json -shards 4        # multi-venue
//	roaserve -addr :8090 -proxy -backends 127.0.0.1:8092,127.0.0.1:8093
//
// Endpoints:
//
//	POST /v1/localize — localize one request (see internal/serve.Request);
//	                    concurrent requests are coalesced into micro-batches
//	POST /v1/track    — localize one epoch of a moving target inside a sticky
//	                    session (serve.TrackRequest): the server keeps a
//	                    per-session tracker that shrinks the grid search to a
//	                    prediction window; -track-ttl / -track-max-sessions
//	                    bound the session table
//	GET  /healthz     — liveness
//	GET  /readyz      — readiness (503 once draining)
//
// Concurrent requests are coalesced into micro-batches and flushed through
// the engine together, so dictionary and factorization reuse amortizes
// across clients: each flush takes every request already queued, up to
// -batch-size, without waiting for more, and requests that arrive during a
// flush form the next batch. When the bounded admission queue
// (-queue-depth) is full, requests are rejected immediately with 429 +
// Retry-After rather than queueing without bound.
//
// On SIGINT/SIGTERM the server drains: admission stops (503), every accepted
// request completes (bounded by -drain-timeout, after which in-flight work
// is cancelled), and a JSON drain report goes to stderr before exit.
//
// Multi-venue serving: -venues loads a venue manifest (see internal/venue)
// and serves every venue from one process behind an LRU cache of engines,
// one per estimation shape, bounded by -venue-budget-kb; requests carry a
// venueId and -shards splits
// them across consistent-hashed dispatcher lanes. -proxy turns the process
// into a thin router that forwards each request to the -backends member
// owning its venue on the same hash ring, so a fleet of roaserve processes
// agrees on placement without coordination.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"roarray/internal/core"
	"roarray/internal/obs"
	"roarray/internal/serve"
	"roarray/internal/venue"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, os.Stderr, stop); err != nil {
		fmt.Fprintln(os.Stderr, "roaserve:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer, stop <-chan os.Signal) error {
	fs := flag.NewFlagSet("roaserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8092", "listen address (host:0 picks a free port)")
	addrFile := fs.String("addr-file", "", "write the bound listen address to this file once serving (for scripts)")
	preset := fs.String("preset", "smoke", `estimator preset: "paper" (faithful, slow) or "smoke" (small grids, fast)`)
	workers := fs.Int("workers", 0, "engine worker count (0 = GOMAXPROCS)")
	batchSize := fs.Int("batch-size", 8, "max requests coalesced into one engine flush")
	queueDepth := fs.Int("queue-depth", 64, "admission queue bound; overflow answers 429")
	requestTimeout := fs.Duration("request-timeout", 0, "server-side per-request budget (0 = none)")
	trackTTL := fs.Duration("track-ttl", 0, "idle /v1/track session lifetime before eviction (0 = 5m default)")
	trackMaxSessions := fs.Int("track-max-sessions", 0, "live /v1/track session cap; overflow answers 429 (0 = 4096 default)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful drain budget on shutdown")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /debug/vars, and /debug/pprof on this address")
	traceFile := fs.String("trace", "", "write a JSONL span trace of every request to this file")
	eventsFile := fs.String("events", "", "write one wide JSON request event per completed request to this file")
	sloLatencyMs := fs.Float64("slo-latency-ms", 0, "SLO latency objective in milliseconds (0 = preset default)")
	sloTarget := fs.Float64("slo-target", 0, "SLO attainment target in (0,1) (0 = preset default)")
	warm := fs.Bool("warm", false, "serving solve profile: joint solves stop once a duality-gap certificate shows them within 2% of optimal (~15 instead of 60 iterations); joint solves run on the Kronecker factors with or without it, and every solve starts cold")
	diagDir := fs.String("diag-dir", "", "write anomaly-triggered diagnostic bundles under this directory (empty disables the trigger engine)")
	diagMaxBundles := fs.Int("diag-max-bundles", 8, "bundles retained in -diag-dir before oldest-first eviction")
	diagCooldown := fs.Duration("diag-cooldown", 2*time.Minute, "minimum spacing between bundle captures (debounce)")
	diagCPUProfile := fs.Duration("diag-cpu-profile", time.Second, "CPU profiling window captured into each bundle")
	diagRing := fs.Int("diag-ring", 256, "flight-recorder request ring capacity (spans keep 4x)")
	diagInterval := fs.Duration("diag-interval", time.Second, "trigger-signal evaluation cadence")
	diagBurn := fs.Float64("diag-burn", 10, "1m SLO burn rate that triggers a bundle")
	diagQueue := fs.Float64("diag-queue", 0.9, "admission-queue fill fraction that triggers a bundle")
	diagGoroutines := fs.Int("diag-goroutines", 10000, "goroutine count that triggers a bundle")
	diagGCPause := fs.Duration("diag-gc-pause", 250*time.Millisecond, "interval GC pause p99 that triggers a bundle")
	venuesFile := fs.String("venues", "", "venue manifest (JSON); enables multi-venue serving with per-request venueId routing")
	venueBudgetKB := fs.Int64("venue-budget-kb", 0, "venue cache budget in KiB for resident dictionaries/factorizations (0 = 256 MiB)")
	shards := fs.Int("shards", 1, "in-process dispatcher lanes; venues are consistent-hashed across them")
	proxyMode := fs.Bool("proxy", false, "run as a venue-routing proxy over -backends instead of serving locally")
	backends := fs.String("backends", "", "comma-separated backend host:port list for -proxy mode")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *proxyMode {
		return runProxy(stderr, stop, *addr, *addrFile, *backends, *metricsAddr, *drainTimeout)
	}

	ps, err := serve.LookupPreset(*preset)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	var eng *core.Engine
	var venues *venue.Registry
	if *venuesFile != "" {
		man, err := venue.LoadManifest(*venuesFile)
		if err != nil {
			return err
		}
		venues = venue.NewRegistry(man, venue.RegistryConfig{
			BudgetBytes: *venueBudgetKB * 1024,
			Build:       venue.BuildConfig{Workers: w, Warm: *warm, Metrics: reg},
			Metrics:     reg,
		})
	} else {
		cfg := ps.Estimator
		cfg.Metrics = reg
		cfg.Warm = *warm
		est, err := core.NewEstimator(cfg)
		if err != nil {
			return fmt.Errorf("estimator: %w", err)
		}
		eng, err = core.NewEngine(est, w)
		if err != nil {
			return fmt.Errorf("engine: %w", err)
		}
	}

	var tracer *obs.Tracer
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return fmt.Errorf("create trace file: %w", err)
		}
		defer f.Close()
		tracer = obs.NewTracer(f)
	}
	var events *obs.EventLog
	if *eventsFile != "" {
		f, err := os.Create(*eventsFile)
		if err != nil {
			return fmt.Errorf("create events file: %w", err)
		}
		defer f.Close()
		events = obs.NewEventLog(f, 256)
		defer events.Close()
		events.Bind(reg)
	}

	// The runtime collector always runs: runtime.* gauges refresh on every
	// /metrics scrape whether or not the trigger engine is enabled.
	collector := obs.NewRuntimeCollector(reg, 100*time.Millisecond)

	// Self-diagnosis: with -diag-dir set, recent requests and spans are kept
	// in a flight-recorder ring and anomaly signals (SLO burn, queue
	// saturation, goroutine pileup, GC pause spikes) capture debounced
	// diagnostic bundles to disk.
	var recorder *obs.FlightRecorder
	if *diagDir != "" {
		recorder = obs.NewFlightRecorder(*diagRing, 4*(*diagRing))
		recorder.Bind(reg)
		if tracer == nil {
			tracer = obs.NewTracer(nil) // spans feed the ring only
		}
		tracer.Mirror(recorder.RecordSpan)
	}
	// The SLO defaults come from the preset so server and load generator agree
	// on the objective; the flags override per run.
	sloCfg := ps.SLO
	if *sloLatencyMs > 0 {
		sloCfg.LatencyObjective = time.Duration(*sloLatencyMs * float64(time.Millisecond))
	}
	if *sloTarget > 0 {
		sloCfg.Target = *sloTarget
	}
	slo := obs.NewSLO(sloCfg)
	slo.Bind(reg)
	if *metricsAddr != "" {
		dbg, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			return fmt.Errorf("metrics server: %w", err)
		}
		defer dbg.Close()
		fmt.Fprintf(stderr, "roaserve: metrics on http://%s/metrics\n", dbg.Addr())
	}

	srv, err := serve.New(serve.Config{
		Engine:             eng,
		Venues:             venues,
		Shards:             *shards,
		BatchSize:          *batchSize,
		QueueDepth:         *queueDepth,
		RequestTimeout:     *requestTimeout,
		Metrics:            reg,
		Tracer:             tracer,
		Events:             events,
		Recorder:           recorder,
		SLO:                slo,
		RetryAfterFull:     ps.RetryAfterFull,
		RetryAfterDraining: ps.RetryAfterDraining,
		TrackSessionTTL:    *trackTTL,
		TrackMaxSessions:   *trackMaxSessions,
	})
	if err != nil {
		return err
	}

	if *diagDir != "" {
		bundles, err := obs.NewBundleWriter(obs.BundleConfig{
			Dir:                *diagDir,
			MaxBundles:         *diagMaxBundles,
			CPUProfileDuration: *diagCPUProfile,
			Registry:           reg,
			Recorder:           recorder,
			Runtime:            collector,
		})
		if err != nil {
			return fmt.Errorf("diag: %w", err)
		}
		trig := obs.NewTriggerEngine(obs.TriggerConfig{
			Interval: *diagInterval,
			Cooldown: *diagCooldown,
			OnTrigger: func(why obs.TriggerReason) {
				fmt.Fprintf(stderr, "roaserve: diag trigger %s (%s), capturing bundle\n", why.Signal, why.Detail)
				if dir, err := bundles.Write(why); err != nil {
					fmt.Fprintf(stderr, "roaserve: diag bundle: %v\n", err)
				} else {
					fmt.Fprintf(stderr, "roaserve: diag bundle %s\n", dir)
				}
			},
		},
			obs.BurnRateSignal(slo, "1m", *diagBurn),
			obs.SaturationSignal("queue_depth", srv.QueueFill, *diagQueue),
			obs.GoroutineSignal(collector, *diagGoroutines),
			obs.GCPauseSignal(collector, *diagGCPause),
		)
		trig.Bind(reg)
		trig.Start()
		defer trig.Stop()
		fmt.Fprintf(stderr, "roaserve: diag bundles to %s (burn >= %.1f, queue >= %.0f%%, goroutines >= %d, gc pause >= %v; cooldown %v)\n",
			*diagDir, *diagBurn, *diagQueue*100, *diagGoroutines, *diagGCPause, *diagCooldown)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *addr, err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("write addr file: %w", err)
		}
	}
	if venues != nil {
		fmt.Fprintf(stderr, "roaserve: %d venues (budget %d bytes, %d shards), %d workers, batch <= %d, queue %d, serving on http://%s\n",
			len(venues.IDs()), venues.Budget(), *shards, w, *batchSize, *queueDepth, bound)
	} else {
		fmt.Fprintf(stderr, "roaserve: preset %s, %d workers, batch <= %d, queue %d, serving on http://%s\n",
			ps.Name, w, *batchSize, *queueDepth, bound)
	}

	httpSrv := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case sig := <-stop:
		fmt.Fprintf(stderr, "roaserve: %v, draining (budget %v)\n", sig, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Drain first so accepted work completes while late arrivals get clean
	// 503s; only then close the listener and idle connections.
	rep := srv.Drain(ctx)
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "roaserve: http shutdown: %v\n", err)
	}

	report := struct {
		serve.DrainReport
		ElapsedSeconds float64     `json:"elapsedSeconds"`
		Stats          serve.Stats `json:"stats"`
	}{DrainReport: rep, ElapsedSeconds: rep.Elapsed.Seconds(), Stats: srv.Stats()}
	enc := json.NewEncoder(stderr)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return err
	}
	if rep.Forced {
		return fmt.Errorf("drain forced after %v with work still in flight", *drainTimeout)
	}
	return nil
}

// runProxy serves the venue-routing proxy: no engine, no queues — just the
// hash ring and an HTTP client per backend. Shutdown is a plain http.Server
// drain since the proxy holds no request state of its own.
func runProxy(stderr io.Writer, stop <-chan os.Signal, addr, addrFile, backends, metricsAddr string, drainTimeout time.Duration) error {
	if backends == "" {
		return fmt.Errorf("-proxy requires -backends host:port[,host:port...]")
	}
	var members []string
	for _, b := range strings.Split(backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			members = append(members, b)
		}
	}
	reg := obs.NewRegistry()
	p, err := serve.NewProxy(serve.ProxyConfig{Backends: members, Metrics: reg})
	if err != nil {
		return err
	}
	if metricsAddr != "" {
		dbg, err := obs.Serve(metricsAddr, reg)
		if err != nil {
			return fmt.Errorf("metrics server: %w", err)
		}
		defer dbg.Close()
		fmt.Fprintf(stderr, "roaserve: metrics on http://%s/metrics\n", dbg.Addr())
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", addr, err)
	}
	bound := ln.Addr().String()
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return fmt.Errorf("write addr file: %w", err)
		}
	}
	fmt.Fprintf(stderr, "roaserve: proxy over %d backends, serving on http://%s\n", len(members), bound)

	httpSrv := &http.Server{Handler: p}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case sig := <-stop:
		fmt.Fprintf(stderr, "roaserve: %v, shutting down proxy\n", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	return httpSrv.Shutdown(ctx)
}
