#!/bin/sh
# End-to-end smoke of the self-diagnosis layer: boot roaserve with the
# trigger engine armed and an SLO objective no request can meet (1 us), so
# the very first served requests breach it and the 1m burn-rate signal
# fires; drive a deliberate overload with roaload -mode spike; then assert
# that exactly ONE debounced diagnostic bundle landed in -diag-dir, that
# roastat -bundle renders it (trigger reason, profiles, embedded metrics),
# and that the live /metrics surface carries the runtime.* gauges.
#
# Environment knobs (defaults keep the whole run well under 30 s):
#   DURATION   spike duration   (default 2s)
set -eu

DURATION="${DURATION:-2s}"

TMP=$(mktemp -d)
SERVE_PID=""
cleanup() {
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

go build -o "$TMP/roaserve" ./cmd/roaserve
go build -o "$TMP/roaload" ./cmd/roaload
go build -o "$TMP/roastat" ./cmd/roastat

# -slo-latency-ms 0.001 makes every successful request an SLO breach
# (latency burn = 100 over any threshold we pick), so the trigger fires
# deterministically within a tick or two of the first completions; the
# 5m cooldown then guarantees the sustained breach yields exactly one
# bundle for the whole run. -queue-depth 4 lets the spike also saturate
# admission, exercising shed (429) paths while the bundle is captured.
"$TMP/roaserve" -addr 127.0.0.1:0 -addr-file "$TMP/addr" -preset smoke \
    -queue-depth 4 -metrics-addr 127.0.0.1:0 \
    -slo-latency-ms 0.001 \
    -diag-dir "$TMP/diag" -diag-interval 100ms -diag-cooldown 5m \
    -diag-cpu-profile 500ms \
    2>"$TMP/serve.log" &
SERVE_PID=$!

i=0
while [ ! -s "$TMP/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ] || ! kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "diag_smoke: roaserve never bound" >&2
        cat "$TMP/serve.log" >&2
        exit 1
    fi
    sleep 0.05
done

METRICS_URL=$(sed -n 's/.*metrics on \(http:[^ ]*\).*/\1/p' "$TMP/serve.log" | head -1)
if [ -z "$METRICS_URL" ]; then
    echo "diag_smoke: no metrics URL in serve log" >&2
    cat "$TMP/serve.log" >&2
    exit 1
fi

# The spike: 32+ closed-loop workers against a 4-deep queue. Shed load
# (429) is expected and not an error; at least one request must get through
# so the SLO window has breaches to burn.
"$TMP/roaload" -addr-file "$TMP/addr" -mode spike \
    -concurrency 4 -duration "$DURATION" -distinct 4 -seed 1 \
    -min-ok 1 > "$TMP/load.line.json"

# The capture blocks for the 500 ms CPU-profile window and writes meta.json
# last, so poll for a completed bundle rather than racing the writer.
i=0
while ! ls "$TMP"/diag/bundle-*/meta.json >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 200 ]; then
        echo "diag_smoke: no diagnostic bundle appeared" >&2
        cat "$TMP/serve.log" >&2
        exit 1
    fi
    sleep 0.05
done

NBUNDLES=$(ls -d "$TMP"/diag/bundle-* | wc -l)
if [ "$NBUNDLES" -ne 1 ]; then
    echo "diag_smoke: $NBUNDLES bundles written, want exactly 1 (debounce broken)" >&2
    ls -l "$TMP/diag" >&2
    exit 1
fi

# The triage report must carry the trigger reason, the captured profiles,
# and the embedded metrics snapshot.
"$TMP/roastat" -bundle "$TMP/diag" > "$TMP/bundle.txt"
grep -q 'slo_burn_1m' "$TMP/bundle.txt"
grep -q 'cpu.pprof' "$TMP/bundle.txt"
grep -q 'metrics at capture' "$TMP/bundle.txt"

# The live /metrics surface carries the runtime health gauges.
"$TMP/roastat" -metrics "$METRICS_URL" -raw > "$TMP/live.json"
grep -q 'runtime.heap_bytes' "$TMP/live.json"
grep -q 'runtime.goroutines' "$TMP/live.json"

# The server still drains cleanly after capturing under overload.
kill -TERM "$SERVE_PID"
if ! wait "$SERVE_PID"; then
    echo "diag_smoke: drain failed" >&2
    cat "$TMP/serve.log" >&2
    exit 1
fi
SERVE_PID=""

echo "diag_smoke: OK (one debounced bundle, rendered: $(basename "$(ls -d "$TMP"/diag/bundle-*)"))"
