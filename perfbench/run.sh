#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it, passing every argument through:
#
#   bash perfbench/run.sh --workload pipeline --seed 1 --seconds 30 --trace 0
#
# Run it from the root of the checkout. The Go build cache, the binary, the
# daemon's state and the trace journals all stay under .bench_build/, and
# HOME points there too, so the toolchain writes nothing outside the
# checkout.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build/work" "$@"
