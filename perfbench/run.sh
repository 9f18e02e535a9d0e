#!/usr/bin/env bash
# Builds the benchmark and the dynloop daemon from this checkout, then
# runs the benchmark with the given arguments, for example:
#
#   bash perfbench/run.sh --workload paper-interpret --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --selftest
#
# Run it from the repository root. Everything it builds, caches or
# writes stays under .bench_build in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

# Keep the Go toolchain's caches and settings inside the checkout, and
# never let it reach for a network.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

go -C perfbench build -o "$out/perfbench" . >&2
go -C perfbench build -o "$out/dynloop" dynloop/cmd/dynloop >&2
exec "$out/perfbench" "$@"
