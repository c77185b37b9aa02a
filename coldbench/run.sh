#!/usr/bin/env bash
# Builds the cold end-to-end benchmark from the checkout it is run in and
# runs it with the given arguments:
#
#   bash coldbench/run.sh --workload sync_lowerbound --seed 1 --seconds 24 --trace 0
#
# Run it from the repository root. Every file the build and the run write
# lands under .bench_build/ in that root: the Go build cache, the toolchain's
# temporary and config directories, and the benchmark binary. The build
# fails, and the script exits nonzero without a result, when the module it
# measures (../go.mod from coldbench/) is absent.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOWORK=off
export GOPROXY=off
export GOFLAGS=

go -C coldbench build -o "$out/coldbench" .
exec "$out/coldbench" "$@"
