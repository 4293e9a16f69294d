#!/bin/sh
# End-to-end smoke of the tracking surface: build roaserve + roaload +
# roastat, boot the server on a free port, walk moving targets through
# /v1/track with roaload -mode walk, gate on along-track accuracy and zero
# session-contract violations, require the prediction window to have engaged,
# check roastat renders the tracking section from the live /metrics, then
# drain via SIGTERM and require a clean exit with the session count in the
# drain report and a request log whose every ok epoch names its session and
# its solver.
#
# Environment knobs (defaults keep the whole run well under 30 s):
#   WALKERS   concurrent moving targets          (default 3)
#   EPOCHS    trajectory epochs per walker       (default 8)
#   MAX_RMSE  along-track RMSE gate in meters    (default 3.0)
set -eu

WALKERS="${WALKERS:-3}"
EPOCHS="${EPOCHS:-8}"
MAX_RMSE="${MAX_RMSE:-3.0}"

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

"$TMP/roaserve" -addr 127.0.0.1:0 -addr-file "$TMP/addr" -preset smoke \
    -metrics-addr 127.0.0.1:0 \
    -track-ttl 1m -track-max-sessions 64 -events "$TMP/events.jsonl" 2>"$TMP/serve.log" &
SERVE_PID=$!

i=0
while [ ! -s "$TMP/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ] || ! kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "track_smoke: roaserve never bound" >&2
        cat "$TMP/serve.log" >&2
        exit 1
    fi
    sleep 0.05
done

# Walk the targets. roaload itself gates session-contract violations
# (sessionErrors > 0 is a non-zero exit) and the along-track RMSE.
MIN_OK=$((WALKERS * EPOCHS / 2))
"$TMP/roaload" -addr-file "$TMP/addr" -mode walk \
    -walkers "$WALKERS" -epochs "$EPOCHS" -seed 7 \
    -out "$TMP/walk.json" -min-ok "$MIN_OK" -max-rmse "$MAX_RMSE"

# The prediction window must actually have engaged: with EPOCHS epochs per
# walker the tracker has velocity from epoch 3 on, so at least one windowed
# epoch across the fleet is the floor (fallbacks are legal, silence is not).
grep -q '"trackWindowed":' "$TMP/walk.json" || {
    echo "track_smoke: summary has no trackWindowed field" >&2
    cat "$TMP/walk.json" >&2
    exit 1
}
WINDOWED=$(sed -n 's/.*"trackWindowed": *\([0-9]*\).*/\1/p' "$TMP/walk.json")
if [ -z "$WINDOWED" ] || [ "$WINDOWED" -lt 1 ]; then
    echo "track_smoke: prediction window never engaged (trackWindowed=$WINDOWED)" >&2
    cat "$TMP/walk.json" >&2
    exit 1
fi

# roastat must render the tracking section from the live endpoint, with the
# fleet's sessions and epochs visible.
METRICS_URL=$(sed -n 's/.*metrics on \(http:[^ ]*\).*/\1/p' "$TMP/serve.log" | head -1)
if [ -z "$METRICS_URL" ]; then
    echo "track_smoke: no metrics URL in serve log" >&2
    exit 1
fi
"$TMP/roastat" -metrics "$METRICS_URL" > "$TMP/stat.txt"
for want in "-- tracking --" "sessions started" "serve.track.e2e.seconds" "serve.track.cells_fraction"; do
    grep -q -- "$want" "$TMP/stat.txt" || {
        echo "track_smoke: roastat output missing \"$want\"" >&2
        cat "$TMP/stat.txt" >&2
        exit 1
    }
done

# Graceful drain must complete, exit 0, and report the walker sessions.
kill -TERM "$SERVE_PID"
if ! wait "$SERVE_PID"; then
    echo "track_smoke: drain failed" >&2
    cat "$TMP/serve.log" >&2
    exit 1
fi
SERVE_PID=""
grep -q '"TrackSessions": '"$WALKERS" "$TMP/serve.log" || {
    echo "track_smoke: drain report does not show $WALKERS tracking sessions" >&2
    cat "$TMP/serve.log" >&2
    exit 1
}
# Every ok epoch in the request log carries its session and the solver
# summary /v1/localize events carry.
OK_EVENTS=$(grep -c '"outcome":"ok"' "$TMP/events.jsonl" || true)
BARE=$(grep '"outcome":"ok"' "$TMP/events.jsonl" | grep -v '"session":' | grep -c . || true)
UNSOLVED=$(grep '"outcome":"ok"' "$TMP/events.jsonl" | grep -v '"solver":' | grep -c . || true)
if [ "$OK_EVENTS" -lt "$MIN_OK" ] || [ "$BARE" -ne 0 ] || [ "$UNSOLVED" -ne 0 ]; then
    echo "track_smoke: request log has $OK_EVENTS ok events (want >= $MIN_OK), $BARE without a session, $UNSOLVED without a solver" >&2
    head -5 "$TMP/events.jsonl" >&2
    exit 1
fi
echo "track_smoke: OK (walkers=$WALKERS epochs=$EPOCHS windowed=$WINDOWED)"
