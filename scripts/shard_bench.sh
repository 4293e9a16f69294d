#!/bin/sh
# Record the committed BENCH_shard.json sharding baseline (make bless-shard).
#
# Three legs plus an equivalence proof, composed into one JSON artifact:
#   shards1   closed-loop single-venue throughput with 1 dispatcher lane
#   shards2   the same load with 2 lanes — on a multi-CPU box throughput must
#             scale near-linearly; on GOMAXPROCS=1 the lanes time-slice one
#             core and the gate (cmd/roaload TestCommittedShardBaseline) only
#             requires the sharded path not to regress (the same 1-CPU
#             ceiling BENCH_batch.json documents for the parallel engine)
#   churn     Zipf swarm over 4 venues of 4 shapes with a 2-shape cache
#             budget (working set ~2x budget): p99 must stay bounded while
#             the LRU evicts
#   identicalSingleVenue  the serve-level bit-identity test: a 2-shard server
#             must reproduce the direct engine path exactly
#
# Knobs: DURATION (default 4s), CONCURRENCY (8), RATE (40), BUDGET_KB (24:
# any two churn shapes fit, the largest pair at 22,048 B, and no three do,
# the smallest triple at 30,912 B).
set -eu

OUT="${OUT:-BENCH_shard.json}"
DURATION="${DURATION:-4s}"
CONCURRENCY="${CONCURRENCY:-8}"
RATE="${RATE:-40}"
BUDGET_KB="${BUDGET_KB:-24}"

TMP=$(mktemp -d)
SERVE_PID=""
cleanup() {
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
    # Legs run in command substitutions (subshells), so their server pids are
    # invisible here — they leave pid files behind instead.
    for f in "$TMP"/pid.*; do
        [ -f "$f" ] && kill "$(cat "$f")" 2>/dev/null || true
    done
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

go build -o "$TMP/roaserve" ./cmd/roaserve
go build -o "$TMP/roaload" ./cmd/roaload
go build -o "$TMP/roastat" ./cmd/roastat

# One closed-loop leg against a fresh server with the given lane count;
# prints the roaload summary line.
leg() {
    shards=$1
    "$TMP/roaserve" -addr 127.0.0.1:0 -addr-file "$TMP/addr.$shards" \
        -preset smoke -shards "$shards" 2>"$TMP/serve.$shards.log" &
    SERVE_PID=$!
    echo "$SERVE_PID" > "$TMP/pid.$shards"
    i=0
    while [ ! -s "$TMP/addr.$shards" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ] || ! kill -0 "$SERVE_PID" 2>/dev/null; then
            echo "shard_bench: roaserve (shards=$shards) never bound" >&2
            cat "$TMP/serve.$shards.log" >&2
            exit 1
        fi
        sleep 0.05
    done
    "$TMP/roaload" -addr-file "$TMP/addr.$shards" -mode closed \
        -concurrency "$CONCURRENCY" -duration "$DURATION" -distinct 6 -seed 1 \
        -min-ok 16
    kill -TERM "$SERVE_PID"
    wait "$SERVE_PID" || { echo "shard_bench: drain failed (shards=$shards)" >&2; exit 1; }
    rm -f "$TMP/pid.$shards"
    SERVE_PID=""
}

echo "shard_bench: leg 1/3 — single lane" >&2
S1=$(leg 1)
echo "shard_bench: leg 2/3 — two lanes" >&2
S2=$(leg 2)

# Churn leg: 4 venues under a 2-shape budget, Zipf arrivals. The venues share
# the smoke CSI layout, so every payload is valid for every venue, but each
# has its own theta grid (19/21/23/25 points, FootprintBytes 9,824 / 10,304
# / 10,784 / 11,264 B): same-shape venues would share one engine and never
# evict.
cat > "$TMP/venues.json" <<'EOF'
{
  "schema": 1,
  "venues": [
    {"id": "hq", "room": {"maxX": 6, "maxY": 5},
     "aps": [{"x": 0.1, "y": 2.5, "axisDeg": 90}, {"x": 5.9, "y": 2.5, "axisDeg": 90}, {"x": 3.0, "y": 0.1, "axisDeg": 0}],
     "subcarriers": 8, "subcarrierSpacingHz": 4e6, "thetaPoints": 19, "tauPoints": 8, "maxIters": 60},
    {"id": "lab", "room": {"maxX": 6, "maxY": 5},
     "aps": [{"x": 0.1, "y": 2.5, "axisDeg": 90}, {"x": 5.9, "y": 2.5, "axisDeg": 90}, {"x": 3.0, "y": 0.1, "axisDeg": 0}],
     "subcarriers": 8, "subcarrierSpacingHz": 4e6, "thetaPoints": 21, "tauPoints": 8, "maxIters": 60},
    {"id": "warehouse", "room": {"maxX": 6, "maxY": 5},
     "aps": [{"x": 0.1, "y": 2.5, "axisDeg": 90}, {"x": 5.9, "y": 2.5, "axisDeg": 90}, {"x": 3.0, "y": 0.1, "axisDeg": 0}],
     "subcarriers": 8, "subcarrierSpacingHz": 4e6, "thetaPoints": 23, "tauPoints": 8, "maxIters": 60},
    {"id": "annex", "room": {"maxX": 6, "maxY": 5},
     "aps": [{"x": 0.1, "y": 2.5, "axisDeg": 90}, {"x": 5.9, "y": 2.5, "axisDeg": 90}, {"x": 3.0, "y": 0.1, "axisDeg": 0}],
     "subcarriers": 8, "subcarrierSpacingHz": 4e6, "thetaPoints": 25, "tauPoints": 8, "maxIters": 60}
  ]
}
EOF

echo "shard_bench: leg 3/3 — cache churn (4 shapes, 2-shape budget)" >&2
"$TMP/roaserve" -addr 127.0.0.1:0 -addr-file "$TMP/addr.churn" \
    -venues "$TMP/venues.json" -venue-budget-kb "$BUDGET_KB" -shards 2 \
    -metrics-addr 127.0.0.1:0 2>"$TMP/serve.churn.log" &
SERVE_PID=$!
i=0
while [ ! -s "$TMP/addr.churn" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ] || ! kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "shard_bench: churn roaserve never bound" >&2
        cat "$TMP/serve.churn.log" >&2
        exit 1
    fi
    sleep 0.05
done
CHURN=$("$TMP/roaload" -addr-file "$TMP/addr.churn" -mode swarm -venues "$TMP/venues.json" \
    -rate "$RATE" -duration "$DURATION" -distinct 4 -seed 1 -zipf-s 1.2 \
    -min-ok 16 -min-venues 3)
METRICS_URL=$(sed -n 's/.*metrics on \(http:[^ ]*\).*/\1/p' "$TMP/serve.churn.log" | head -1)
"$TMP/roastat" -metrics "$METRICS_URL" -raw > "$TMP/snap.json"
EVICTIONS=$(sed -n 's/.*"venue\.cache\.evictions_total": *\([0-9]*\).*/\1/p' "$TMP/snap.json" | head -1)
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "shard_bench: churn drain failed" >&2; exit 1; }
SERVE_PID=""

# Bit-identity proof: the serve-level test compares a 2-shard server against
# the direct engine path request by request.
if go test ./internal/serve/ -run '^TestShardedBitIdenticalSingleVenue$' -count 1 > /dev/null; then
    IDENTICAL=true
else
    IDENTICAL=false
fi

T1=$(printf '%s' "$S1" | sed -n 's/.*"throughputRps": *\([0-9.eE+-]*\).*/\1/p')
T2=$(printf '%s' "$S2" | sed -n 's/.*"throughputRps": *\([0-9.eE+-]*\).*/\1/p')
RATIO=$(awk "BEGIN { if ($T1 > 0) printf \"%.4f\", $T2 / $T1; else print 0 }")
NPROC=$(printf '%s' "$S1" | sed -n 's/.*"gomaxprocs": *\([0-9]*\).*/\1/p')
[ -n "$NPROC" ] || NPROC=1

{
    printf '{\n'
    printf '  "tool": "shard_bench",\n'
    printf '  "gomaxprocs": %s,\n' "$NPROC"
    printf '  "throughputRatio2v1": %s,\n' "$RATIO"
    printf '  "evictions": %s,\n' "${EVICTIONS:-0}"
    printf '  "identicalSingleVenue": %s,\n' "$IDENTICAL"
    printf '  "shards1": %s,\n' "$S1"
    printf '  "shards2": %s,\n' "$S2"
    printf '  "churn": %s\n' "$CHURN"
    printf '}\n'
} > "$OUT"
echo "shard_bench: wrote $OUT (ratio $RATIO, $EVICTIONS evictions, identical=$IDENTICAL)"
