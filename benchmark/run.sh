#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources, then runs it from the
# checkout root with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload select --seed 1 --seconds 20 --trace 0
#
# The benchmark is its own Go module (benchmark/go.mod) that replaces the
# gtpin module with the checkout around it. Everything the build writes —
# binary, build cache, Go's own config and cache directories — stays
# under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/home"
gobuild() {
	(
		cd benchmark
		env HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
			GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local GOPROXY=off \
			go build "$@" -o "$out/benchmark" .
	)
}
# The commit in the result stamp comes from VCS stamping; where git cannot
# read the checkout, build without it and stamp the commit "unknown".
gobuild 2>/dev/null || gobuild -buildvcs=false
exec "$out/benchmark" "$@"
