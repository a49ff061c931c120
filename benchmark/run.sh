#!/usr/bin/env bash
# Entry point named in BENCHMARK.json: builds the benchmark from source
# inside the checkout (build cache included) and runs it from the
# checkout root with the arguments given.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/rsse-benchmark" .) >&2
cd "$root"
exec "$build/rsse-benchmark" "$@"
