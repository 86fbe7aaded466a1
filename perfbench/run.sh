#!/usr/bin/env bash
# Builds the repository benchmark from the source in this checkout and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload fig11-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary,
# scratch cache directories, trace files) lands under
# ${CARGO_TARGET_DIR:-.bench_build}/perfbench inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod || ! -d internal/exp ]]; then
	echo "perfbench: run from the repository root (the simulator sources are missing here)" >&2
	exit 2
fi

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$build" = /* ]] || build="$root/$build"
out="$build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export TMPDIR="$out/gotmp"
export XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOPROXY=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
