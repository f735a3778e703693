#!/usr/bin/env bash
# Builds perfbench from source inside the checkout and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload kv-update --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go build cache live under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
# The go command keeps its telemetry counters under the user config dir;
# keep those writes inside the checkout too.
export XDG_CONFIG_HOME="$out/config"
# Everything the build needs is in the checkout: never reach for a module proxy.
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off GOSUMDB=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
