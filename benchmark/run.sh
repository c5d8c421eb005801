#!/usr/bin/env bash
# Builds dvbench and indexd from this checkout and runs one benchmark
# workload. Run it from the repository root, e.g.
#
#   bash benchmark/run.sh --workload hard-canon --seed 1 --seconds 20 --trace 0
#
# Every file it builds or writes (binaries, Go build cache and config,
# index data, span files) goes under .bench_build/ at the root. Outside a
# full checkout (no root go.mod) the build fails and it exits non-zero.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
# The Go command keeps its build cache, module cache, temporary files and
# telemetry under these; pointing them into .bench_build keeps the run
# inside the checkout and independent of the user's Go settings.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOTOOLCHAIN=local GOWORK=off

(cd "$root/benchmark" && go build -buildvcs=false -o "$out/bin/" ./cmd/dvbench dvicl/cmd/indexd)

commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/bin/dvbench" -indexd "$out/bin/indexd" -work "$out" -commit "$commit" "$@"
