#!/usr/bin/env bash
# Entry point of the repo benchmark (BENCHMARK.json "command"). Run from the
# root of a checkout: builds the harness from source and runs it with the
# arguments given. Everything built or written stays under .bench_build/ in
# that checkout — Go's build cache and temp files included.
set -euo pipefail

src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off

# The harness is its own module (bench/e2e/go.mod) that replaces module
# deca with ../.., so it builds only inside a full checkout.
(cd "$src" && go build -o "$out/deca-e2e" .)
exec "$out/deca-e2e" -workdir "$out/tmp" "$@"
