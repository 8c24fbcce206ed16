#!/usr/bin/env bash
# Builds juryd and the benchmark from source, then runs one benchmark
# run. Run it from the repository root:
#
#   bash perfbench/run.sh --workload pool-select --seed 1 --seconds 30 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build/
# in the working directory (CARGO_TARGET_DIR is honoured as that
# directory's name, for harnesses that set it).
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/juryd" ]; then
	echo "perfbench: run from the repository root (cmd/juryd not found)" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/bin" "$build/tmp" "$build/work" "$build/home"

# The go command's config, telemetry and caches follow HOME and
# XDG_CONFIG_HOME; pointing them here keeps every write in the checkout.
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export GOENV=off
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
export GOPROXY=off

go build -o "$build/bin/juryd" ./cmd/juryd
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -juryd "$build/bin/juryd" -work "$build/work" "$@"
