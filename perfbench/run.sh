#!/usr/bin/env bash
# Builds the spectrald benchmark from the checkout's sources and runs it.
# Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload cold-flat --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact (Go build cache, binary, scratch journals
# and spectrum stores) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
