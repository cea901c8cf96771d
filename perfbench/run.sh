#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload mesh-datagram --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and traced-run spans stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ "$out" = /* ]] || out="$root/$out"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=mod

if ! go -C "$root/perfbench" build -o "$out/perfbench" . >&2; then
	echo "perfbench: build failed" >&2
	exit 1
fi
exec "$out/perfbench" "$@"
