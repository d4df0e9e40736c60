#!/usr/bin/env bash
# Builds the end-to-end serving benchmark from source and runs it with the
# given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload catalog-mix --seed 1 --seconds 30 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build/
# in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/e2ebench"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps telemetry under the user config dir; keep it here too.
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOENV=off

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --workdir "$out" "$@"
