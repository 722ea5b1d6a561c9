#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, for example:
#
#   bash perfbench/run.sh --workload explore-cube --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and every temporary file stay under
# .bench_build/ in the current directory. Without the repository's sources
# beside perfbench/ the build fails and the script exits non-zero.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
