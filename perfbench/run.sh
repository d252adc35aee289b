#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments (--workload NAME --seed N --seconds S --trace 0|1). Run from
# the root of the checkout. Everything the build and the run write stays
# under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of a hyperpraw checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" HOME="$build" \
	GOTOOLCHAIN=local GOFLAGS= GOENV=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$build/perfbench-bin" .)
exec "$build/perfbench-bin" -out "$build/perfbench" "$@"
