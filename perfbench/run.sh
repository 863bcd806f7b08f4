#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload collect|ingest|query --seed N --seconds S --trace 0|1
#
# Run it from the repository root. The build cache, the binary and the
# run's scratch stores all live under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" --workdir "$build/work" "$@"
