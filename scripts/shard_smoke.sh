#!/bin/sh
# End-to-end smoke of the multi-venue sharded serving tier: write a 3-venue
# manifest of three estimation shapes, boot roaserve with -venues, -shards,
# and a cache budget sized for only two resident shapes, drive Zipf-skewed
# swarm load so the LRU cache actually churns, then verify per-venue RED
# rows render in roastat, the eviction counter moved, and SIGTERM still
# drains cleanly.
#
# Environment knobs (defaults keep the whole run well under 30 s):
#   OUT         write the roaload swarm artifact here (default: temp only)
#   DURATION    load duration                         (default 3s)
#   RATE        swarm open-loop arrival rate          (default 40)
#   SHARDS      dispatcher lanes                      (default 2)
#   BUDGET_KB   venue cache budget; the default fits any two of the three
#               shapes (FootprintBytes 9,824 / 10,304 / 10,784 B, the
#               largest pair 21,088 B) and never all three (30,912 B), so
#               the third shape forces an eviction       (default 24)
set -eu

OUT="${OUT:-}"
DURATION="${DURATION:-3s}"
RATE="${RATE:-40}"
SHARDS="${SHARDS:-2}"
BUDGET_KB="${BUDGET_KB:-24}"

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

# Three venues on the smoke CSI layout (8 subcarriers at 4 MHz, so every
# payload is valid for every venue), each with its own theta grid (19, 21,
# 23 points): the cache holds one engine per shape, and same-shape venues
# would share one engine and never evict.
cat > "$TMP/venues.json" <<'EOF'
{
  "schema": 1,
  "venues": [
    {
      "id": "hq",
      "room": {"maxX": 6, "maxY": 5},
      "aps": [
        {"x": 0.1, "y": 2.5, "axisDeg": 90},
        {"x": 5.9, "y": 2.5, "axisDeg": 90},
        {"x": 3.0, "y": 0.1, "axisDeg": 0}
      ],
      "subcarriers": 8, "subcarrierSpacingHz": 4e6,
      "thetaPoints": 19, "tauPoints": 8, "maxIters": 60
    },
    {
      "id": "lab",
      "room": {"maxX": 6, "maxY": 5},
      "aps": [
        {"x": 0.1, "y": 2.5, "axisDeg": 90},
        {"x": 5.9, "y": 2.5, "axisDeg": 90},
        {"x": 3.0, "y": 0.1, "axisDeg": 0}
      ],
      "subcarriers": 8, "subcarrierSpacingHz": 4e6,
      "thetaPoints": 21, "tauPoints": 8, "maxIters": 60
    },
    {
      "id": "warehouse",
      "room": {"maxX": 6, "maxY": 5},
      "aps": [
        {"x": 0.1, "y": 2.5, "axisDeg": 90},
        {"x": 5.9, "y": 2.5, "axisDeg": 90},
        {"x": 3.0, "y": 0.1, "axisDeg": 0}
      ],
      "subcarriers": 8, "subcarrierSpacingHz": 4e6,
      "thetaPoints": 23, "tauPoints": 8, "maxIters": 60
    }
  ]
}
EOF

"$TMP/roaserve" -addr 127.0.0.1:0 -addr-file "$TMP/addr" \
    -venues "$TMP/venues.json" -venue-budget-kb "$BUDGET_KB" -shards "$SHARDS" \
    -metrics-addr 127.0.0.1:0 2>"$TMP/serve.log" &
SERVE_PID=$!

i=0
while [ ! -s "$TMP/addr" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ] || ! kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "shard_smoke: roaserve never bound" >&2
        cat "$TMP/serve.log" >&2
        exit 1
    fi
    sleep 0.05
done

# The metrics address is in the startup log ("metrics on http://HOST:PORT/metrics").
METRICS_URL=$(sed -n 's/.*metrics on \(http:[^ ]*\).*/\1/p' "$TMP/serve.log" | head -1)
if [ -z "$METRICS_URL" ]; then
    echo "shard_smoke: no metrics URL in serve log" >&2
    exit 1
fi

# Zipf-skewed swarm load: every venue must complete requests, which means
# the cold tail keeps re-entering a cache with room for only two venues.
BENCH="${OUT:-$TMP/bench.json}"
"$TMP/roaload" -addr-file "$TMP/addr" -mode swarm -venues "$TMP/venues.json" \
    -rate "$RATE" -duration "$DURATION" -distinct 4 -seed 1 -zipf-s 1.2 \
    -out "$BENCH" -min-ok 16 -min-venues 3

# Per-venue RED rows must render for all three venues.
"$TMP/roastat" -metrics "$METRICS_URL" > "$TMP/stat.txt"
grep -q -- '-- venues --' "$TMP/stat.txt" || {
    echo "shard_smoke: roastat rendered no venue section" >&2
    cat "$TMP/stat.txt" >&2
    exit 1
}
for v in hq lab warehouse; do
    grep -q "^  $v " "$TMP/stat.txt" || {
        echo "shard_smoke: venue $v missing from RED table" >&2
        cat "$TMP/stat.txt" >&2
        exit 1
    }
done

# The cache must have churned: with three shapes under a two-shape budget,
# at least one eviction is structurally guaranteed.
"$TMP/roastat" -metrics "$METRICS_URL" -raw > "$TMP/snap.json"
EVICTIONS=$(sed -n 's/.*"venue\.cache\.evictions_total": *\([0-9]*\).*/\1/p' "$TMP/snap.json" | head -1)
if [ -z "$EVICTIONS" ] || [ "$EVICTIONS" -lt 1 ]; then
    echo "shard_smoke: no venue evictions under a two-shape budget (got '${EVICTIONS:-absent}')" >&2
    exit 1
fi

# Graceful drain must complete and exit 0.
kill -TERM "$SERVE_PID"
if ! wait "$SERVE_PID"; then
    echo "shard_smoke: drain failed" >&2
    cat "$TMP/serve.log" >&2
    exit 1
fi
SERVE_PID=""
echo "shard_smoke: OK ($EVICTIONS evictions, $SHARDS shards)"
