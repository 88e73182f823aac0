#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it:
#
#   bash perfbench/run.sh --workload uniform-rw --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product and cache stays
# under .bench_build/ in the checkout. The benchmark module replaces the
# cowbird module with the checkout's root, so the build fails (and no
# result is printed) where the repository's sources are absent.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0 GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
PERFBENCH_COMMIT=$commit exec "$out/perfbench" "$@"
