#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it; every
# argument passes through. Run from the repository root:
#
#   bash perfbench/run.sh --workload characterize --seed 1 --seconds 30 --trace 0
#
# The Go build cache and the binary live under .bench_build/ so a run
# reads and writes nothing outside the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOTELEMETRY=off
go -C perfbench build -buildvcs=false -o "$build/perfbench" . >&2
PERFBENCH_COMMIT="$(GIT_CEILING_DIRECTORIES="$(dirname "$PWD")" git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)" \
	exec "$build/perfbench" "$@"
