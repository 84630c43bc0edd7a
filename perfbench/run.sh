#!/usr/bin/env bash
# run.sh builds the benchmark and sgxd from the checkout's sources and runs
# one workload. Run it from the repository root:
#
#	bash perfbench/run.sh --workload sim-phoenix --seed 1 --seconds 25 --trace 0
#
# Everything it builds, caches or writes lands under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout, including the Go build cache.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ] || [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/sgxd" ]; then
	echo "perfbench: run from the root of an sgxbounds checkout" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/bin" "$build/tmp" "$build/home"

export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export HOME=$build/home XDG_CONFIG_HOME=$build/home XDG_CACHE_HOME=$build/home GOPATH=$build/home/go
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
(cd "$root" && go build -o "$build/bin/" ./cmd/sgxd)

exec "$build/bin/perfbench" -root "$root" -build "$build" "$@"
