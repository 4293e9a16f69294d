#!/bin/sh
# End-to-end smoke of the request-centric observability stack: boot roaserve
# with the serving solve profile (-warm: joint solves stop on their 2%
# duality-gap certificate), the event log, a trace file, a metrics endpoint,
# and the smoke SLO;
# drive it with roaload (which tags every request with X-Request-Id and
# verifies the echo); then use roastat to (1) render the live /metrics with
# its SLO burn table, (2) diff two snapshots taken around the load, and
# (3) join one request id across the event log and the trace.
#
# Environment knobs (defaults keep the whole run well under 30 s):
#   DURATION   load duration          (default 2s)
#   SLO_OK     attainment gate        (default 0.5 — smoke CI boxes are slow)
set -eu

DURATION="${DURATION:-2s}"
SLO_OK="${SLO_OK:-0.5}"

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

"$TMP/roaserve" -addr 127.0.0.1:0 -addr-file "$TMP/addr" -preset smoke -warm \
    -metrics-addr 127.0.0.1:0 \
    -events "$TMP/events.jsonl" -trace "$TMP/trace.jsonl" \
    2>"$TMP/serve.log" &
SERVE_PID=$!

i=0
while [ ! -s "$TMP/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ] || ! kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "obs_smoke: roaserve never bound" >&2
        cat "$TMP/serve.log" >&2
        exit 1
    fi
    sleep 0.05
done

# The metrics address is in the startup log ("metrics on http://HOST:PORT/metrics").
METRICS_URL=$(sed -n 's/.*metrics on \(http:[^ ]*\).*/\1/p' "$TMP/serve.log" | head -1)
if [ -z "$METRICS_URL" ]; then
    echo "obs_smoke: no metrics URL in serve log" >&2
    cat "$TMP/serve.log" >&2
    exit 1
fi

# Snapshot before the load (raw JSON, for the diff below).
"$TMP/roastat" -metrics "$METRICS_URL" -raw > "$TMP/before.json"

"$TMP/roaload" -addr-file "$TMP/addr" -mode closed \
    -concurrency 4 -duration "$DURATION" -distinct 4 -seed 1 \
    -out "$TMP/load.json" -min-ok 8 -slo-ok "$SLO_OK" > "$TMP/load.line.json"

# Live render after load must show traffic and the SLO table.
"$TMP/roastat" -metrics "$METRICS_URL" -raw > "$TMP/after.json"
"$TMP/roastat" -metrics "$METRICS_URL" > "$TMP/after.txt"
grep -q 'serve.e2e.seconds' "$TMP/after.txt"
grep -q 'SLO: target' "$TMP/after.txt"
grep -q 'burn(avail)' "$TMP/after.txt"

# -warm must reach the solver: the load's joint solves stop on their
# duality-gap certificate.
if ! grep -Eq '"sparse.solve.earlystop_total": [1-9]' "$TMP/after.json"; then
    echo "obs_smoke: no solve stopped on the duality-gap certificate" >&2
    exit 1
fi

# The interval between the two snapshots is exactly the load run: the diff
# must show completed requests (nonzero accepted counter delta).
"$TMP/roastat" -metrics "$TMP/before.json" -diff "$TMP/after.json" > "$TMP/diff.txt"
grep -q 'accepted' "$TMP/diff.txt"
if grep -Eq 'accepted +0$' "$TMP/diff.txt"; then
    echo "obs_smoke: diff shows zero accepted requests" >&2
    cat "$TMP/diff.txt" >&2
    exit 1
fi

# Drain, then work offline on the files the server left behind.
kill -TERM "$SERVE_PID"
if ! wait "$SERVE_PID"; then
    echo "obs_smoke: drain failed" >&2
    cat "$TMP/serve.log" >&2
    exit 1
fi
SERVE_PID=""

# Pick one request id out of the event log and join it against the trace:
# the same id must select records in both files.
RID=$(sed -n 's/.*"id":"\([^"]*\)".*/\1/p' "$TMP/events.jsonl" | head -1)
if [ -z "$RID" ]; then
    echo "obs_smoke: no request events written" >&2
    exit 1
fi
"$TMP/roastat" -events "$TMP/events.jsonl" -req "$RID" > /dev/null
"$TMP/roastat" -events "$TMP/trace.jsonl" -req "$RID" > /dev/null

echo "obs_smoke: OK (request $RID joined across events and trace)"
