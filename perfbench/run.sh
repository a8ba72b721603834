#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it from the
# checkout root. Every build product (binary, Go build cache, the go
# command's temporary and config files) and every file a run writes
# stays under .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload sim-fig8 --seed 42 --seconds 20 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" "$@"
