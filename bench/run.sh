#!/usr/bin/env bash
# Builds rtrbench from the sources of the checkout it is run from and runs
# it with the given arguments, e.g. from the repository root:
#
#   bash bench/run.sh --workload fig9-lfd --seed 7 --seconds 20 --trace 0
#
# The build cache, the binary and every file a run writes stay under
# .bench_build/ in the working directory; nothing is downloaded.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= TMPDIR="$build/tmp"
# The go command keeps telemetry counters under the user's config directory.
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"

go build -C bench -o "$build/rtrbench" ./cmd/rtrbench
exec "$build/rtrbench" "$@"
