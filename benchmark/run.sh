#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given, from
# the root of a checkout:
#
#   bash benchmark/run.sh --workload sor-gather-fs-sync --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write — the Go build cache, the binary,
# the checkpoint stores — goes under .bench_build/ of the working directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOENV=off GOTOOLCHAIN=local GOWORK=off

# The benchmark is a module of its own that replaces the engine's module with
# the parent directory: without the engine's source beside it this fails.
go build -C "$here" -o "$build/benchmark" .

# Every repetition starts from a forced collection, so that allocation counts
# repeat exactly; the scavenger then hands the freed heap back to the kernel
# and the timed run pays the page faults to get it back — 20 to 40 ms on some
# repetitions and not on others in this VM. With MADV_FREE the pages stay
# mapped until the kernel needs them, and the timings settle.
export GODEBUG=madvdontneed=0
exec "$build/benchmark" "$@"
