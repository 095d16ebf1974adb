#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. The build and its Go caches stay in
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

# Keep every Go cache, config and telemetry write inside the checkout,
# and never reach for the network.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off

if [ ! -f go.mod ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root; the program's sources are missing" >&2
	exit 2
fi
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
