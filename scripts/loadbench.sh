#!/usr/bin/env bash
# Serving-layer load smoke: build carsd + carsbench, start the daemon,
# drive a short fixed-seed closed-loop zipf run over real HTTP, assert
# the report's dedup accounting, then diff it advisorily against the
# checked-in LOAD_ baseline. Exits non-zero on any failure except the
# advisory latency diff (latency on a shared runner is noisy — the
# compare warns, it never gates). Used by `make loadbench` and the CI
# load job, which uploads load-head.json as an artifact.
set -euo pipefail

ADDR="127.0.0.1:${CARSD_PORT:-8346}"
BASE="http://$ADDR"
DIR="$(mktemp -d)"
OUT="${LOADBENCH_OUT:-load-head.json}"
BASELINE="${LOAD_BASELINE:-LOAD_2026-10-22.json}"
cleanup() {
  if [ -n "${DPID:-}" ] && kill -0 "$DPID" 2>/dev/null; then
    kill "$DPID" 2>/dev/null || true
    wait "$DPID" 2>/dev/null || true
  fi
  rm -rf "$DIR"
}
trap cleanup EXIT

echo "== build"
go build -o "$DIR/carsd" ./cmd/carsd
go build -o "$DIR/carsbench" ./cmd/carsbench

echo "== start carsd on $BASE"
"$DIR/carsd" -addr "$ADDR" -workers 4 >"$DIR/carsd.log" 2>&1 &
DPID=$!

echo "== fixed-seed closed-loop zipf run"
# Same knobs as the archived baseline: seed 42 over 16 hot keys at
# zipf(1) with 5% cold misses, two ramp steps, 400 requests each.
# carsbench waits for /healthz itself, so no polling loop here.
"$DIR/carsbench" -addr "$BASE" -mode closed -ramp 4x20s,8x20s \
  -requests 400 -seed 42 -keys 16 -skew 1 -cold 5 \
  -o "$OUT" | tee "$DIR/carsbench.out"

echo "== sanity: report accounting"
grep -q 'collapse rate' "$DIR/carsbench.out"
grep -q 'latency p50' "$DIR/carsbench.out"
grep -q "archived $OUT" "$DIR/carsbench.out"
grep -q '"kind": "load"' "$OUT"
grep -q '"schemaVersion": 2' "$OUT"
grep -q '"seed": 42' "$OUT"
# The daemon must have deduplicated: 800 requests over 16 hot keys
# cannot all have executed. The summary's "server: N sim runs" line is
# the daemon's own counter delta — hold it under half the offered load.
SIM="$(sed -n 's/^server: \([0-9]*\) sim runs.*/\1/p' "$DIR/carsbench.out")"
test -n "$SIM" || { echo "no server summary line"; exit 1; }
test "$SIM" -lt 400 || { echo "no dedup: $SIM sim runs for 800 requests"; exit 1; }
# Schema round-trip: a self-compare exercises ReadReport's validation.
go run ./cmd/benchjson -compare "$OUT" "$OUT" >/dev/null
echo "loadbench: 800 requests, $SIM sim runs"

echo "== advisory diff vs $BASELINE"
if [ -f "$BASELINE" ]; then
  go run ./cmd/benchjson -compare "$BASELINE" "$OUT"
else
  echo "baseline $BASELINE not present; skipping diff"
fi

echo "== graceful drain (SIGTERM)"
kill -TERM "$DPID"
for i in $(seq 1 50); do
  kill -0 "$DPID" 2>/dev/null || break
  sleep 0.2
done
if kill -0 "$DPID" 2>/dev/null; then
  echo "carsd did not exit after SIGTERM"; exit 1
fi
wait "$DPID" 2>/dev/null || true

echo "loadbench: OK"
