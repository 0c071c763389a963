#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, e.g.:
#   bash perfbench/run.sh --workload fig9-timing --seed 1 --seconds 25 --trace 0
# Everything the go command writes (binary, build and module caches, its
# config and telemetry counters) stays under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: $root is not a lelantus checkout (go.mod and internal/ are missing)" >&2
	exit 2
fi
b="$root/.bench_build"
mkdir -p "$b"
export GOCACHE="$b/gocache" GOMODCACHE="$b/gomodcache" GOPATH="$b/gopath" XDG_CONFIG_HOME="$b/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
go -C perfbench build -o "$b/perfbench-bin" .
exec "$b/perfbench-bin" "$@"
