#!/usr/bin/env bash
# Builds the simulator CLI and the perfbench program from the checkout in
# the current directory, then runs perfbench with the given arguments,
# for example:
#
#   bash perfbench/run.sh --workload table1 --seed 1 --seconds 25 --trace 0
#
# Build caches, binaries and profiles stay under .bench_build/ in the
# checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/mobisim" ./cmd/mobisim
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -mobisim "$out/mobisim" -tmp "$out/tmp" "$@"
