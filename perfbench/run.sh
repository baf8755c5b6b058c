#!/usr/bin/env bash
# Builds the benchmark and dperfd from this checkout's sources and runs
# the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload cold|serve|capacity --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh compare BASE_RESULTS NEW_RESULTS
#
# Everything the build and the runs write stays under .bench_build/ in
# the checkout: the Go build cache, temporary files, the binaries, the
# dperfd store and the span files.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
cd "$root"
go build -o "$out/dperfd" ./cmd/dperfd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -dperfd "$out/dperfd" -out "$out" "$@"
