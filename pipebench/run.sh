#!/usr/bin/env bash
# Builds the whole-pipeline benchmark from the checkout's sources and
# runs it.  Run from the repository root; every build artefact and the
# Go caches stay under .bench_build/, and traced runs write their span
# files under .bench_out/.
#
#   bash pipebench/run.sh --workload interactive --seed 1 --seconds 20 --trace 0
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod

rev=unknown
if [ -d "$root/.git" ]; then
	rev=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
go -C "$root/pipebench" build -buildvcs=false -o "$build/pipebench" .
PIPEBENCH_REV=$rev exec "$build/pipebench" "$@"
