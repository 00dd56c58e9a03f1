#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke of the dpbpd sweep server:
# start it, submit a small sweep, schema-check the streamed NDJSON and
# /metrics, and assert the streamed final document is byte-identical to
# the equivalent `dpbp -format json` CLI run and the warm repeat's whole
# stream byte-identical to the first.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=$(mktemp -d)
trap 'kill "${PID:-}" 2>/dev/null || true; rm -rf "$OUT"' EXIT

go build -o "$OUT/dpbpd" ./cmd/dpbpd
"$OUT/dpbpd" -addr 127.0.0.1:0 -workers 2 -dcache "$OUT/dcache" \
    > "$OUT/dpbpd.log" 2>&1 &
PID=$!

URL=""
for _ in $(seq 1 100); do
    URL=$(sed -n 's|^dpbpd: listening on \(http://.*\)$|\1|p' "$OUT/dpbpd.log")
    [ -n "$URL" ] && break
    kill -0 "$PID" 2>/dev/null || { cat "$OUT/dpbpd.log"; exit 1; }
    sleep 0.1
done
[ -n "$URL" ] || { echo "dpbpd never reported its address"; cat "$OUT/dpbpd.log"; exit 1; }

curl -fsS "$URL/healthz" > "$OUT/healthz.json"

SUB='{"experiment":"table1","benchmarks":["gcc"],"timing_insts":60000,"profile_insts":60000}'
curl -fsS -N -X POST -H 'Content-Type: application/json' \
    -d "$SUB" "$URL/api/v1/sweeps" > "$OUT/stream.ndjson"
# Submit again: the repeat must be served from the sweep memo (checked
# via /metrics) and stream the same bytes.
curl -fsS -N -X POST -H 'Content-Type: application/json' \
    -d "$SUB" "$URL/api/v1/sweeps" > "$OUT/stream2.ndjson"
curl -fsS "$URL/metrics" > "$OUT/metrics.json"

go run ./cmd/dpbp -exp table1 -bench gcc -insts 60000 -profinsts 60000 -format json \
    > "$OUT/cli.json"

python3 scripts/serve_smoke_check.py "$OUT"
