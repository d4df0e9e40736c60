#!/usr/bin/env bash
# tensor_smoke.sh — end-to-end smoke of the tensor-program frontend.
#
# The exit criterion of the frontend, exercised for real over HTTP:
#   1. cinnamon-serve (local executor, 4 levels) compiles the catalog
#      including the tensor programs; cinnamon-loadgen serves the
#      encrypted logistic-regression step (logreg16: matvec + fused bias +
#      degree-3 sigmoid) and the transformer-style linear block (xform64:
#      64x64 BSGS matmul + bias), decrypting every response and verifying
#      it against the plaintext reference. Any failed request or slot
#      error above the server-advertised per-program tolerance exits 1.
#   2. The same two programs again with serve in -cluster mode over a
#      2-process worker cluster: results must verify identically through
#      the distributed keyswitch path.
set -euo pipefail
cd "$(dirname "$0")/.."

LOGN=${LOGN:-8}
LEVELS=${LEVELS:-4}
SEED=${SEED:-20260805}
WPORTS=(9111 9112)
SERVE_PORT=8093
BIN=$(mktemp -d)
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$BIN"
}
trap cleanup EXIT

wait_healthy() {
  for i in $(seq 1 100); do
    curl -sf "http://127.0.0.1:$SERVE_PORT/healthz" >/dev/null 2>&1 && return 0
    sleep 0.2
  done
  echo "FAIL: serve on :$SERVE_PORT never became healthy" >&2
  return 1
}

drive_load() {
  # Tolerances are advertised per program by the server (verify_tolerance
  # in /v1/programs); -max-error-rate 0 makes any failed request fatal.
  "$BIN/cinnamon-loadgen" -url "http://127.0.0.1:$SERVE_PORT" -program logreg16 \
    -tenant "$1" -requests 12 -rate 30 -max-error-rate 0
  "$BIN/cinnamon-loadgen" -url "http://127.0.0.1:$SERVE_PORT" -program xform64 \
    -tenant "$1" -requests 12 -rate 30 -max-error-rate 0
}

echo "== building binaries =="
go build -o "$BIN" ./cmd/cinnamon-worker ./cmd/cinnamon-serve ./cmd/cinnamon-loadgen

echo "== 1. local executor: serve + verified tensor load =="
"$BIN/cinnamon-serve" -addr "127.0.0.1:$SERVE_PORT" \
  -logn "$LOGN" -levels "$LEVELS" -seed "$SEED" &
SERVE_PID=$!
PIDS+=($SERVE_PID)
wait_healthy

# Both tensor programs must be in the catalog (not skipped) at 4 levels.
PROGS=$(curl -sf "http://127.0.0.1:$SERVE_PORT/v1/programs")
for prog in logreg16 xform64; do
  echo "$PROGS" | grep -q "\"$prog\"" || {
    echo "FAIL: program $prog missing from /v1/programs" >&2
    exit 1
  }
done

drive_load tensor-emu

kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true

echo "== 2. cluster backend: 2 workers + serve -cluster + verified tensor load =="
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

"$BIN/cinnamon-serve" -addr "127.0.0.1:$SERVE_PORT" -cluster "$WORKERS" \
  -logn "$LOGN" -levels "$LEVELS" -seed "$SEED" &
PIDS+=($!)
wait_healthy

drive_load tensor-cluster

echo "== tensor smoke PASS =="
