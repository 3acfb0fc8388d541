#!/usr/bin/env bash
# Builds the benchmark binary from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload sweep-cold --seed 1 --seconds 10 --trace 0
#
# The benchmark binary, the Go build cache and every scratch file a run makes
# live under $CARGO_TARGET_DIR (default .bench_build), so nothing is read
# from or written to a shared location other than the Go toolchain itself.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache XDG_CONFIG_HOME=$out/config \
    GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C bench build -o "$out/bench" .
exec "$out/bench" -workdir "$out" "$@"
