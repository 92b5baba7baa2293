#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of
# the repository:
#
#   bash gcsbench/run.sh --workload grid_serial --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and every temporary file live under
# .bench_build/ in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd gcsbench && go build -o "$out/gcsbench" .) >&2
commit=unknown
if [ -e .git ]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/gcsbench" --commit "$commit" "$@"
