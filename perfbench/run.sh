#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.  Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload fs-small --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (binary, Go build cache, span
# files) goes under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath \
	GOMODCACHE=$out/gopath/pkg/mod XDG_CONFIG_HOME=$out/config \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --spans-dir "$out" "$@"
