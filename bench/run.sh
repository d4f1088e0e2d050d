#!/usr/bin/env bash
# The benchmark's entry point under BENCHMARK.json's contract: build the
# benchmark from the checkout's own source, then run it with the driver's
# arguments. Everything the build and the run write — Go's build cache, its
# work directory, the binary, scratch files — stays under .bench_build in the
# checkout. Where the repository's source is missing the build fails and so
# does this script, without printing a result.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache" "$build/gomodcache"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd "$bench" && go build -o "$build/eagletree-bench" .)
cd "$root"
exec "$build/eagletree-bench" "$@"
