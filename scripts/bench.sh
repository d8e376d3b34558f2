#!/bin/sh
# Benchmark entry point, shared by `make bench` and CI.
#
#   scripts/bench.sh            run every benchmark in bench_test.go and
#                               rewrite BENCH_3.json's "current" section
#   scripts/bench.sh -check     run the same suite and fail on allocs/op
#                               or B/op regressions against BENCH_3.json
#
# The suite covers the perf-critical substrates (event engine, timers,
# SECDED, PCC, RNG, PCM line store, op generation and its feed,
# coherence directory, IRLP accounting), two end-to-end controller
# benches (mixed traffic, and the program-and-verify write path), and
# one reduced-budget Figure 1 run — enough to catch both micro-level
# allocation regressions and macro-level slowdowns. Every benchmark is
# in the ledger.
#
# BENCHTIME defaults to CI's 200ms, so a recorded ledger and a checked
# run amortize growth over comparable b.N: B/op moves with b.N (see
# cmd/pcmapbench's checkLedger). A longer BENCHTIME sharpens ns/op but
# records B/op that a 200ms check may not reproduce.
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-200ms}"

OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

echo ">> go test -bench (benchtime=$BENCHTIME)"
go test -run '^$' -bench . -benchmem -benchtime "$BENCHTIME" . | tee "$OUT"

case "${1:-}" in
-check)
	echo '>> pcmapbench -check BENCH_3.json'
	go run ./cmd/pcmapbench -check BENCH_3.json <"$OUT"
	;;
"")
	echo '>> pcmapbench -out BENCH_3.json'
	go run ./cmd/pcmapbench -out BENCH_3.json <"$OUT"
	;;
*)
	echo "usage: scripts/bench.sh [-check]" >&2
	exit 2
	;;
esac

echo 'bench OK'
