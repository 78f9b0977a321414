#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it. Run from the
# root of a checkout of the repository:
#
#   bash perfbench/run.sh --workload query --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, durable state and span
# files.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
if [ ! -f "$bench/../go.mod" ] || [ ! -d "$bench/../internal/core" ]; then
	echo "perfbench: the repository sources are missing next to $bench; run from a full checkout" >&2
	exit 2
fi
# Fall back to the Go distribution's default install location when the
# calling environment's PATH lacks it.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
command -v go >/dev/null || { echo "perfbench: no go toolchain on PATH" >&2; exit 2; }

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off

(cd "$bench" && go build -trimpath -o "$build/perfbench" .)
exec "$build/perfbench" -dir "$build/perfbench-run" "$@"
