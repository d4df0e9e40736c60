#!/usr/bin/env bash
# cluster_smoke.sh — end-to-end smoke of the scale-out cluster runtime.
#
# Spins up a real 3-process worker cluster on localhost, then:
#   1. cinnamon-cluster: quartic + rotsum must be bit-exact across the
#      cluster vs a single-process run.
#   2. cinnamon-serve -cluster + cinnamon-loadgen -verify: served results
#      must decrypt correctly (exit 1 on any failed request or slot error
#      above -max-slot-err).
#   3. Kill one worker mid-service and drive load again: the cluster fails
#      the run typed, the serving core replays it on its local executor,
#      and every result still verifies.
#   4. cinnamon-chaos -profile corrupt: frame corruption round — every
#      injected bit flip must be caught by the wire CRC and no response may
#      decrypt wrong (the binary self-asserts and exits nonzero otherwise).
set -euo pipefail
cd "$(dirname "$0")/.."

LOGN=${LOGN:-8}
LEVELS=${LEVELS:-3}
SEED=${SEED:-20260805}
WPORTS=(9101 9102 9103)
SERVE_PORT=8091
BIN=$(mktemp -d)
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$BIN"
}
trap cleanup EXIT

echo "== building binaries =="
go build -o "$BIN" ./cmd/cinnamon-worker ./cmd/cinnamon-cluster ./cmd/cinnamon-serve ./cmd/cinnamon-loadgen ./cmd/cinnamon-chaos

echo "== starting ${#WPORTS[@]} workers =="
for port in "${WPORTS[@]}"; do
  "$BIN/cinnamon-worker" -addr "127.0.0.1:$port" -logn "$LOGN" -levels "$LEVELS" -seed "$SEED" &
  PIDS+=($!)
done

WORKERS=$(IFS=,; echo "${WPORTS[*]/#/127.0.0.1:}")
for i in $(seq 1 50); do
  ok=true
  for port in "${WPORTS[@]}"; do
    (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null || { ok=false; break; }
    exec 3>&- || true
  done
  $ok && break
  sleep 0.2
done

echo "== 1. bit-exact cluster verification =="
"$BIN/cinnamon-cluster" -workers "$WORKERS" -programs quartic,rotsum \
  -logn "$LOGN" -levels "$LEVELS" -seed "$SEED"

echo "== 2. serve in cluster mode + verified load =="
"$BIN/cinnamon-serve" -addr "127.0.0.1:$SERVE_PORT" -cluster "$WORKERS" \
  -logn "$LOGN" -levels "$LEVELS" -seed "$SEED" &
SERVE_PID=$!
PIDS+=($SERVE_PID)
for i in $(seq 1 100); do
  curl -sf "http://127.0.0.1:$SERVE_PORT/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done

"$BIN/cinnamon-loadgen" -url "http://127.0.0.1:$SERVE_PORT" -program all \
  -requests 24 -rate 20 -max-slot-err 1e-3 -max-error-rate 0

echo "== 3. kill one worker, requests must replay locally =="
kill "${PIDS[0]}"
"$BIN/cinnamon-loadgen" -url "http://127.0.0.1:$SERVE_PORT" -program quartic \
  -tenant loadgen2 -requests 8 -rate 20 -max-slot-err 1e-3 -max-error-rate 0

FALLBACKS=$(curl -sf "http://127.0.0.1:$SERVE_PORT/metrics" | grep -oE '"emulator_fallbacks": *[0-9]+' | grep -oE '[0-9]+$')
echo "local replays after worker loss: ${FALLBACKS:-0}"
if [ "${FALLBACKS:-0}" -lt 1 ]; then
  echo "FAIL: expected at least one local replay after killing a worker" >&2
  exit 1
fi

echo "== 4. frame-corruption round (bit flips vs CRC) =="
"$BIN/cinnamon-chaos" -seed 1 -duration 5s -profile corrupt -min-faults 10 -json

echo "== cluster smoke PASS =="
