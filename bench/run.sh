#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build leaves behind — the binary, the Go build cache, an
# (empty) module cache — goes under .bench_build/ at the checkout root, so
# a run reads and writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/pandas-bench" .)
cd "$root"
exec "$build/pandas-bench" "$@"
