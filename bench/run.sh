#!/usr/bin/env bash
# Builds cmd/gpsbench and runs it from the repository root with the
# arguments given. The binary, Go's build cache and its temporary files
# all live in .bench_build/ inside the checkout, so a run reads and writes
# nothing outside it; the first build in a fresh checkout compiles the
# standard library too and takes about a minute.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOTMPDIR="$root/.bench_build/tmp"
mkdir -p "$GOTMPDIR"
export GOFLAGS="${GOFLAGS:-} -buildvcs=false"
export GOTOOLCHAIN=local
go build -C cmd/gpsbench -o "$root/.bench_build/gpsbench" .
exec "$root/.bench_build/gpsbench" "$@"
