# Tier-1 + race gate for the roarray repo. `make check` is the bar every
# change must clear before merging; the individual targets exist so CI and
# local loops can run the cheap steps first.

GO ?= go

# Packages that share state across goroutines — the estimator/solver caches
# and the observability registry/tracer — the race gate hammers exactly these
# so the full -race sweep stays affordable.
RACE_PKGS := ./internal/core/... ./internal/sparse/... ./internal/obs/... ./internal/quality/... ./internal/serve/... ./internal/venue/... ./internal/testbed/...

.PHONY: check vet perfbench-vet build test race bench bench-search bench-solve bench-wire bench-serve profile experiments quality-gate bless-quality bless-batch serve-smoke bless-serve fuzz-smoke fault-gate bless-fault obs-smoke diag-smoke shard-smoke bless-shard track-smoke bless-track

check: vet perfbench-vet build test race fuzz-smoke quality-gate fault-gate serve-smoke obs-smoke diag-smoke shard-smoke track-smoke

vet:
	$(GO) vet ./...

# The benchmark harness is a nested module, so the root `go vet ./...` and
# `go build ./...` skip it: a renamed core or serve API it uses would
# otherwise fail only when the benchmark runs.
perfbench-vet:
	cd perfbench && $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Serial-vs-parallel batch engine comparison (see DESIGN.md, Concurrency
# model); speedup requires GOMAXPROCS >= 2.
bench:
	$(GO) test -run XXX -bench 'LocalizeBatch' -benchtime 3x .

# Search and solver benchmark pairs (see DESIGN.md §13): the grid search's
# flat-scan test oracle against the branch-and-bound search (their ratio is
# the search speedup) and the windowed search, which report the cost
# evaluations per search as cells/op beside ns/op, and the
# dense-vs-Kronecker solver ratio: BenchmarkADMMCold on the dense 90 x 920
# dictionary against BenchmarkADMMKron on a solver built from its factors
# (sparse.NewKronSolver; 30 x 20 delay and 3 x 46 AoA factors). The
# BenchmarkADMMKron pattern also matches BenchmarkADMMKronK1 (one snapshot),
# BenchmarkADMMKronSmoke, the serving-shape solve the perfbench workloads
# run (the smoke preset's 8 x 8 delay and 3 x 19 AoA factors, k = 1, stopped
# by the duality-gap certificate sparse.WithGapStop(0.02) with the
# 60-iteration cap as a backstop), and BenchmarkADMMKronGapStop, that
# profile's iterations per solve over a fused burst. BenchmarkKronWoodbury
# isolates one Kronecker x-update (the block-diagonal Woodbury kernel) at
# the serving shape. The committed-baseline regression assertion itself
# lives in cmd/roabench (TestCommittedBatchBaseline, part of `make test`);
# this target is for eyeballing the ratios.
bench-search:
	$(GO) test -run XXX -bench 'BenchmarkLocalizeFlat$$|BenchmarkLocalizeCoarseFine$$|BenchmarkLocalizeWindow$$' -benchtime 5x ./internal/core/
	$(GO) test -run XXX -bench 'BenchmarkADMMCold$$|BenchmarkADMMKron|BenchmarkKronWoodbury$$' -benchtime 3x ./internal/sparse/

# Warm joint-solve benchmarks with allocations reported (see DESIGN.md §13):
# the Kronecker ADMM solves (BenchmarkADMMKron*, the paper shape and the
# smoke serving shape), one Kronecker x-update (BenchmarkKronWoodbury), and a
# whole single-link estimate at the smoke serving shape
# (BenchmarkEstimateDirectAoASmoke), plus a cold estimator's construction
# and Warmup at the smoke and paper presets' shapes
# (BenchmarkEstimatorWarmup), the dictionary cost a venue load pays. A warm
# SolveMulti allocates only its Result and RowMags; a warm single-link
# estimate, whose solve reuses its pooled link workspace's RowMags,
# allocates nothing. The allocs/op before and after the pooled solver and
# link workspaces, and the warm-up cost before and after the joint solver
# was built from its factors alone, are recorded in EXPERIMENTS.md.
bench-solve:
	$(GO) test -run XXX -bench 'BenchmarkADMMKron|BenchmarkKronWoodbury$$' -benchmem -benchtime 200x ./internal/sparse/
	$(GO) test -run XXX -bench 'BenchmarkEstimateDirectAoASmoke$$' -benchmem -benchtime 2000x ./internal/core/
	$(GO) test -run XXX -bench 'BenchmarkEstimatorWarmup$$' -benchmem -benchtime 41x ./internal/core/

# Request-decode benchmark pairs (see DESIGN.md §11): the handlers'
# reflection-free wire decoder (BenchmarkDecodeRequest) against the
# encoding/json Decoder it replaced (BenchmarkDecodeRequestJSON), and the
# proxy's scanner-based venueId peek (BenchmarkPeekVenueID) against the
# json.Unmarshal peek it replaced (BenchmarkPeekVenueIDJSON), all over the
# smoke preset's BatchRequests bodies with allocations reported; the ratios
# are recorded in EXPERIMENTS.md.
bench-wire:
	$(GO) test -run XXX -bench 'BenchmarkDecodeRequest|BenchmarkPeekVenueID' -benchtime 2000x ./internal/serve/

# Whole-request benchmarks (see DESIGN.md §11, Request memory): warm
# smoke-preset /v1/localize and /v1/track bodies served one at a time
# through Server.ServeHTTP on the production observability stack, with
# allocations reported. A lone request is flushed as soon as it is queued,
# so ns/op is one request's whole serving time; allocs/op and B/op are the
# request arena's figures (TestServeLocalizeAllocs and TestServeTrackAllocs
# gate the counts).
# BenchmarkEngineLocalize runs one warm smoke-shape Engine.Localize at
# workers 1 and 2, so the cost of Engine.Map's fan-out over a request's links
# shows beside the serial loop (TestEngineLocalizeAllocs pins both counts).
# BenchmarkStartSpan opens and ends a root span and one child on a tracer
# mirrored into a flight recorder, the serving stack's tracing (DESIGN.md
# §9, Spans); pooled spans allocate nothing (TestSpanAllocatesNothing).
bench-serve:
	$(GO) test -run XXX -bench 'BenchmarkServeLocalize$$|BenchmarkServeTrack$$' -benchmem -benchtime 500x ./internal/serve/
	$(GO) test -run XXX -bench 'BenchmarkEngineLocalize$$' -benchmem -benchtime 500x ./internal/core/
	$(GO) test -run XXX -bench 'BenchmarkStartSpan$$' -benchmem ./internal/obs/

# CPU and memory profiles of the parallel batch engine, written to
# ./profiles/ (gitignored). Inspect with `go tool pprof profiles/cpu.pprof`.
profile:
	mkdir -p profiles
	$(GO) test -run XXX -bench BenchmarkLocalizeBatchParallel -benchtime 3x \
		-cpuprofile profiles/cpu.pprof -memprofile profiles/mem.pprof .

# Regenerate the full figure sweep into experiments_output.txt (gitignored;
# quick settings — raise -locations for paper-scale runs).
experiments:
	$(GO) run ./cmd/roabench -fig all > experiments_output.txt

# Flags the committed BENCH_quality.json baseline was recorded with. Small
# multi-location sizes keep the gate under ~2 minutes on one CPU; theta/tau/
# iters stay at defaults so the location-independent figures match default
# runs bit for bit.
QUALITY_FLAGS := -seed 5 -locations 2 -packets 4 -aps 4

# Accuracy/perf regression gate: re-run every experiment at the baseline's
# recorded settings and compare each gated metric against the tolerance
# bands stored in BENCH_quality.json. Fails (non-zero) on any regression or
# missing metric. quality_current.json is gitignored.
quality-gate:
	$(GO) run ./cmd/roabench -fig all $(QUALITY_FLAGS) -artifact quality_current.json > /dev/null
	$(GO) run ./cmd/roabench -compare BENCH_quality.json -artifact quality_current.json

# Short fuzzing pass over the attacker-facing decoders — the serve wire
# formats (stateless and tracking) and the proxy's venueId peek, the CSI admission sanitizer, the quality
# artifact loader, the event log, the venue manifest, and the trajectory
# plan — plus the Eq. 19 search against its flat-scan reference. ~10 s per
# target; the committed corpora under testdata/fuzz/ also run as plain unit
# tests in `make test`. Go allows one -fuzz pattern per invocation, hence one
# line each.
FUZZ_TIME := 10s
fuzz-smoke:
	$(GO) test ./internal/serve/ -run XXX -fuzz '^FuzzRequestDecode$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/serve/ -run XXX -fuzz '^FuzzTrackRequestDecode$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/serve/ -run XXX -fuzz '^FuzzVenuePeek$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/core/ -run XXX -fuzz '^FuzzSanitizeBurst$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/core/ -run XXX -fuzz '^FuzzSearchExact$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/quality/ -run XXX -fuzz '^FuzzReadArtifact$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/obs/ -run XXX -fuzz '^FuzzEventDecode$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/venue/ -run XXX -fuzz '^FuzzVenueManifestDecode$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/testbed/ -run XXX -fuzz '^FuzzTrajectoryPlan$$' -fuzztime $(FUZZ_TIME)

# Graceful-degradation regression gate: re-run the fault-injection sweep at
# the baseline's recorded settings and compare against BENCH_fault.json.
# Every fault mode must keep returning positions with bounded median error.
# fault_current.json is gitignored.
fault-gate:
	$(GO) run ./cmd/roabench -fault $(QUALITY_FLAGS) -artifact fault_current.json > /dev/null
	$(GO) run ./cmd/roabench -compare BENCH_fault.json -artifact fault_current.json

# Re-record the committed BENCH_fault.json degradation baseline. Review the
# diff before committing.
bless-fault:
	$(GO) run ./cmd/roabench -fault $(QUALITY_FLAGS) -artifact BENCH_fault.json > /dev/null

# End-to-end smoke of the serving stack (roaserve + roaload over HTTP):
# boots the server on a free port, offers closed-loop load, gates on
# completed requests and micro-batch coalescing, and requires a clean
# SIGTERM drain. Finishes in well under 30 s.
serve-smoke:
	./scripts/serve_smoke.sh

# End-to-end smoke of the request-centric observability stack (roaserve with
# events + trace + /metrics, roaload tagging request ids, roastat rendering,
# diffing, and joining one id across the event log and the trace).
obs-smoke:
	./scripts/obs_smoke.sh

# End-to-end smoke of the self-diagnosis layer (roaserve with the trigger
# engine armed, roaload -mode spike provoking an SLO breach, exactly one
# debounced bundle on disk, roastat -bundle rendering it).
diag-smoke:
	./scripts/diag_smoke.sh

# End-to-end smoke of the multi-venue sharded serving tier (3-venue manifest,
# Zipf swarm load, per-venue RED rows in roastat, LRU evictions under a
# two-shape budget: the three venues differ in theta grid, clean drain).
shard-smoke:
	./scripts/shard_smoke.sh

# End-to-end smoke of the tracking surface (roaserve with /v1/track session
# limits, roaload -mode walk driving moving targets through sticky sessions,
# RMSE + session-contract gates, roastat tracking rows, clean drain).
track-smoke:
	./scripts/track_smoke.sh

# Flags the committed BENCH_track.json mobility baseline was recorded with.
# 8 packets / 6 APs keep per-epoch fixes clean enough that the tracker's
# prediction window holds its 10%-of-grid shrinkage claim (noisier fixes
# inflate the NIS gate and the window with it).
TRACK_FLAGS := -seed 7 -locations 12 -packets 8 -aps 6

# Re-record the committed BENCH_track.json mobility baseline (stateless vs
# tracked arms over one trajectory). The committed-artifact gate is
# cmd/roabench TestCommittedTrackBaseline, part of `make test`. Review the
# diff before committing.
bless-track:
	$(GO) run ./cmd/roabench -fig track $(TRACK_FLAGS) -artifact BENCH_track.json > /dev/null

# Re-record the committed BENCH_shard.json sharding baseline (1-vs-2 lane
# throughput, cache-churn leg, bit-identity proof). The committed-artifact
# gate is cmd/roaload TestCommittedShardBaseline, part of `make test`.
# Review the diff before committing.
bless-shard:
	./scripts/shard_bench.sh

# Re-record the committed BENCH_serve.json serving baseline (longer run,
# pinned knobs). Review the diff before committing.
bless-serve:
	OUT=BENCH_serve.json DURATION=5s CONCURRENCY=8 MIN_OK=24 MIN_MEAN_BATCH=1.2 \
		./scripts/serve_smoke.sh

# Re-record the committed BENCH_batch.json throughput baseline. The -warm
# leg is what the committed artifact's solve-latency gate (cmd/roabench
# TestCommittedBatchBaseline) reads, so it must stay on here.
bless-batch:
	$(GO) run ./cmd/roabench -batch 8 -seed 5 -packets 4 -aps 4 -warm -json > BENCH_batch.json

# Re-record the committed baselines after an intentional accuracy or
# performance change. Review the diff of BENCH_*.json before committing.
bless-quality: bless-batch
	$(GO) run ./cmd/roabench -fig all $(QUALITY_FLAGS) -artifact BENCH_quality.json > /dev/null
