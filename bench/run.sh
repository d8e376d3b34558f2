#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run it from the repository root, for example:
#
#   bash bench/run.sh --workload mt-memory --seed 1 --seconds 30 --trace 0
#
# The Go build cache, module cache and telemetry, the binary and the
# benchmark's temporary files all live under .bench_build/ at the root,
# so nothing is written elsewhere.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/go-cache" "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C bench -o "$out/pcmapbench" .
exec "$out/pcmapbench" "$@"
