#!/usr/bin/env bash
# Builds the benchmark and runs it. Run from the repository root:
#
#   bash bench/run.sh --workload serve-tcp --seed 1 --seconds 24 --trace 0
#
# The Go build cache, the compiler's scratch files and every binary stay
# under .bench_build/ in the repository, so a run writes nothing outside
# it.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/go-build" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
mkdir -p "$out/bin" "$out/tmp"
(cd "$root/bench" && go build -o "$out/bin/bench" .)
exec "$out/bin/bench" "$@"
