#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload serve-open --seed 1 --seconds 20 --trace 0
#
# Every build artifact (binary, Go build cache) lands in .bench_build/ under
# the current directory, so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod

(cd "$root/perfbench" && go build -o "$build/perfbench" .)

# Stamp the commit when the checkout is a git work tree; never look above it.
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
exec "$build/perfbench" --commit "$commit" "$@"
