#!/bin/sh
# End-to-end smoke of the serving stack: build roaserve + roaload, boot the
# server on a free port, offer closed-loop load, gate on completions and
# micro-batch coalescing, then drain via SIGTERM and require a clean exit.
#
# Environment knobs (defaults keep the whole run well under 30 s):
#   OUT            write the roaload bench artifact here (default: temp only)
#   DURATION       load duration                       (default 3s)
#   CONCURRENCY    closed-loop clients                 (default 8)
#   MIN_OK         minimum completed requests          (default 16)
#   MIN_MEAN_BATCH minimum mean flush size             (default 1.2)
set -eu

OUT="${OUT:-}"
DURATION="${DURATION:-3s}"
CONCURRENCY="${CONCURRENCY:-8}"
MIN_OK="${MIN_OK:-16}"
MIN_MEAN_BATCH="${MIN_MEAN_BATCH:-1.2}"

TMP=$(mktemp -d)
SERVE_PID=""
cleanup() {
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

go build -o "$TMP/roaserve" ./cmd/roaserve
go build -o "$TMP/roaload" ./cmd/roaload

"$TMP/roaserve" -addr 127.0.0.1:0 -addr-file "$TMP/addr" -preset smoke 2>"$TMP/serve.log" &
SERVE_PID=$!

i=0
while [ ! -s "$TMP/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ] || ! kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "serve_smoke: roaserve never bound" >&2
        cat "$TMP/serve.log" >&2
        exit 1
    fi
    sleep 0.05
done

BENCH="${OUT:-$TMP/bench.json}"
"$TMP/roaload" -addr-file "$TMP/addr" -mode closed \
    -concurrency "$CONCURRENCY" -duration "$DURATION" -distinct 6 -seed 1 \
    -out "$BENCH" -min-ok "$MIN_OK" -min-mean-batch "$MIN_MEAN_BATCH"

# Graceful drain must complete and exit 0 (non-zero means a forced drain or
# lost work; the report lands in serve.log).
kill -TERM "$SERVE_PID"
if ! wait "$SERVE_PID"; then
    echo "serve_smoke: drain failed" >&2
    cat "$TMP/serve.log" >&2
    exit 1
fi
SERVE_PID=""
echo "serve_smoke: OK"
