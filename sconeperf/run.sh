#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, for example:
#
#   bash sconeperf/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every file the Go toolchain and the
# benchmark write — build cache, binary, temporary state directories, span
# files — stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local

# The benchmark is a module of its own that imports the repository's
# packages through a replace directive, so it only builds inside a full
# checkout; anywhere else the build fails and nothing is printed.
go -C "$root/sconeperf" build -o "$build/sconeperf" . >&2
exec "$build/sconeperf" "$@"
