#!/usr/bin/env bash
# Builds hostbench from source and runs it with the given arguments:
#
#   bash benchmarks/run.sh --workload serve-hot --seed 1 --seconds 22 --trace 0
#
# This is the command BENCHMARK.json names. Everything the build and the
# run write — the binary, Go's build cache, temporary files, traces and
# result files — stays under benchmarks/out/, which git ignores. The
# benchmark is a module of its own (go.mod here) that imports the
# repository's packages through a replace directive, so it builds only
# inside a checkout of the repository.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out/tmp"

export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" # Go's telemetry and env files
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$here" && go build -o "$out/hostbench" ./hostbench)
exec "$out/hostbench" -out "$out" "$@"
