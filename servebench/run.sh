#!/usr/bin/env bash
# Builds cmd/motifserve, the traced host and the benchmark program from the
# sources of the checkout it is run from, into .bench_build (the Go build
# cache included, so nothing is written outside the checkout), then runs
# the benchmark with the arguments given:
#
#   bash servebench/run.sh --workload retrieval --seed 3 --seconds 12 --trace 0
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/motifserve" || ! -f "$root/servebench/go.mod" ]]; then
	echo "servebench: run from the root of a trajmotif checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

go build -o "$out/motifserve" ./cmd/motifserve
(cd servebench && go build -o "$out/servebench" . && go build -o "$out/tracehost" ./tracehost)
exec "$out/servebench" -bin "$out" "$@"
