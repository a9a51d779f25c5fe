#!/bin/bash
# Builds the bench into <checkout>/.bench_build (Go's build cache and temp
# files too, so nothing is written outside the checkout) and runs it from
# bench/ with the arguments given.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOTOOLCHAIN=local
cd "$here"
go build -o "$build/simbench" .
exec "$build/simbench" "$@"
