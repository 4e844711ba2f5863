#!/usr/bin/env bash
# End-to-end smoke test for the carsd daemon: build the daemon and its
# clients, start the daemon, drive it with carsctl (health, one
# simulation, metrics) and carsbench (a single-flight fan-out), assert
# the metric names dashboards depend on, and check graceful SIGTERM
# drain. Exits non-zero on any failure. Used by `make serve-smoke` and
# the CI serve job.
set -euo pipefail

ADDR="127.0.0.1:${CARSD_PORT:-8344}"
BASE="http://$ADDR"
DIR="$(mktemp -d)"
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
go build -o "$DIR/carsctl" ./cmd/carsctl
go build -o "$DIR/carsbench" ./cmd/carsbench

echo "== start carsd on $BASE"
"$DIR/carsd" -addr "$ADDR" -workers 4 -cache-file "$DIR/serve.cache" \
  >"$DIR/carsd.log" 2>&1 &
DPID=$!

for i in $(seq 1 50); do
  if "$DIR/carsctl" -addr "$BASE" health >/dev/null 2>&1; then break; fi
  if ! kill -0 "$DPID" 2>/dev/null; then
    echo "carsd died on startup:"; cat "$DIR/carsd.log"; exit 1
  fi
  sleep 0.2
done
"$DIR/carsctl" -addr "$BASE" health

echo "== one simulation"
"$DIR/carsctl" -addr "$BASE" simulate -config base -workload FIB >"$DIR/sim.json"
grep -q '"cached": false' "$DIR/sim.json"
grep -q '"Workload": "FIB"' "$DIR/sim.json"

echo "== identical request is a cache hit"
"$DIR/carsctl" -addr "$BASE" simulate -config base -workload FIB >"$DIR/sim2.json"
grep -q '"cached": true' "$DIR/sim2.json"

echo "== single-flight fan-out (32 identical cold-cache requests)"
# One hot key, no cold traffic: 32 closed-loop clients each send the
# same never-simulated spec once, and the /metricsz delta must show a
# single simulator run.
FAN="$("$DIR/carsbench" -addr "$BASE" -mode closed -ramp 32x30s -requests 32 \
  -keys 1 -cold 0 -full -o "$DIR/fanout.json")"
echo "$FAN"
echo "$FAN" | grep -q '^server: 1 sim runs'

echo "== async job lifecycle"
JOB_ID="$("$DIR/carsctl" -addr "$BASE" submit -kind simulate -config cars -workload MST \
  | grep '"id"' | sed 's/.*"id": "\([^"]*\)".*/\1/')"
for i in $(seq 1 100); do
  STATUS="$("$DIR/carsctl" -addr "$BASE" poll "$JOB_ID")"
  case "$STATUS" in
    *'"status": "done"'*) break ;;
    *'"status": "error"'*) echo "$STATUS"; exit 1 ;;
  esac
  sleep 0.3
done
"$DIR/carsctl" -addr "$BASE" fetch "$JOB_ID" >"$DIR/job.json"
grep -q '"Workload": "MST"' "$DIR/job.json"

echo "== metrics exposition"
"$DIR/carsctl" -addr "$BASE" metrics >"$DIR/metrics.txt"
for m in \
  carsd_http_requests_total \
  carsd_http_request_seconds \
  carsd_sim_runs_total \
  carsd_sim_cycles_total \
  carsd_queue_depth \
  carsd_queue_capacity \
  carsd_queue_rejected_total \
  carsd_inflight_jobs \
  carsd_cache_hits_total \
  carsd_cache_misses_total \
  carsd_cache_evictions_total \
  carsd_singleflight_executions_total \
  carsd_singleflight_collapsed_total \
  carsd_requests_cached_total \
  carsd_requests_collapsed_total \
  carsd_request_timeouts_total \
  carsd_uptime_seconds
do
  grep -q "^$m" "$DIR/metrics.txt" || { echo "MISSING METRIC: $m"; exit 1; }
done

echo "== typed snapshot (/metricsz)"
"$DIR/carsctl" -addr "$BASE" snapshot >"$DIR/snapshot.json"
grep -q '"schemaVersion": 1' "$DIR/snapshot.json"
grep -q '"carsd_sim_runs_total"' "$DIR/snapshot.json"
grep -q '"carsd_requests_cached_total"' "$DIR/snapshot.json"

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
grep -q "drained cleanly" "$DIR/carsd.log"
test -s "$DIR/serve.cache" || { echo "cache not persisted on drain"; exit 1; }

echo "serve smoke: OK"
