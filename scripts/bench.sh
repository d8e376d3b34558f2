#!/bin/sh
# Benchmark entry point, shared by `make bench` and CI.
#
#   scripts/bench.sh            run the hot-path suite and rewrite
#                               BENCH_3.json's "current" section
#   scripts/bench.sh -check     run the suite and fail on allocs/op
#                               regressions against BENCH_3.json
#   scripts/bench.sh -footprint run Fig1 with -benchmem and record the
#                               before/after footprint (ns, bytes,
#                               allocs per op vs the BENCH_3.json
#                               baseline) in BENCH_9.json, failing if
#                               the memory-overhaul reductions regress
#                               (allocs/op >= 5x, bytes/op >= 3x)
#
# The suite covers the perf-critical substrates (event engine, timers,
# SECDED, PCC, RNG, PCM line store, op generation and its feed,
# coherence directory, IRLP accounting), two end-to-end controller
# benches (mixed traffic, and the program-and-verify write path), and
# one full figure regeneration — enough to catch both
# micro-level allocation regressions and macro-level slowdowns without
# CI running every figure. BENCHTIME trades precision for CI time.
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1s}"
PATTERN='^(BenchmarkEngine|BenchmarkEngineTimer|BenchmarkEngineTraceDisabled|BenchmarkSECDEDEncode|BenchmarkSECDEDCorrect|BenchmarkSECDEDDecodeClean|BenchmarkPCCReconstruct|BenchmarkPCCUpdate|BenchmarkRNGUint64|BenchmarkRNGExp|BenchmarkRNGPick|BenchmarkCacheLoadHit|BenchmarkStoreGetWarm|BenchmarkStoreWriteScattered|BenchmarkAnalyzeLineWrite|BenchmarkGeneratorNext|BenchmarkFeedNext|BenchmarkDirectory|BenchmarkIRLPStream|BenchmarkControllerRequests|BenchmarkControllerVerify|BenchmarkFig1)$'

OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

# -footprint: the memory-overhaul record. Reruns the figure
# regeneration with -benchmem and writes its footprint next to the
# frozen pre-overhaul baseline from BENCH_3.json, so the allocs/bytes
# reduction stays visible (and enforced: the overhaul promised >=5x
# fewer allocs/op and >=3x fewer bytes/op, and CI fails if either
# erodes). ns/op is recorded but not gated — wall clock varies with
# the CI machine; allocation counts do not.
if [ "${1:-}" = "-footprint" ]; then
	echo ">> go test -bench Fig1 -benchmem (benchtime=$BENCHTIME)"
	go test -run '^$' -bench '^BenchmarkFig1$' -benchmem \
		-benchtime "$BENCHTIME" . | tee "$OUT"
	eval "$(awk '$1 ~ /^BenchmarkFig1-[0-9]+$/ || $1 == "BenchmarkFig1" {
		for (i = 3; i <= NF; i++) {
			if ($i == "ns/op")     printf "after_ns=%s\n", $(i-1)
			if ($i == "B/op")      printf "after_bytes=%s\n", $(i-1)
			if ($i == "allocs/op") printf "after_allocs=%s\n", $(i-1)
		}
		exit
	}' "$OUT")"
	if [ -z "${after_allocs:-}" ] || [ -z "${after_bytes:-}" ]; then
		echo "bench.sh: missing -benchmem columns in Fig1 output" >&2
		exit 1
	fi
	# The baseline section precedes current in BENCH_3.json, so the
	# first BenchmarkFig1 block is the frozen pre-overhaul footprint.
	eval "$(awk '
		/"BenchmarkFig1"/ {f=1}
		f && /"ns_per_op"/     {gsub(/[^0-9.]/, "", $2); printf "before_ns=%s\n", $2}
		f && /"bytes_per_op"/  {gsub(/[^0-9]/,  "", $2); printf "before_bytes=%s\n", $2}
		f && /"allocs_per_op"/ {gsub(/[^0-9]/,  "", $2); printf "before_allocs=%s\n", $2; exit}
	' BENCH_3.json)"
	if [ -z "${before_allocs:-}" ]; then
		echo "bench.sh: no BenchmarkFig1 baseline in BENCH_3.json" >&2
		exit 1
	fi
	awk -v bns="$before_ns" -v bby="$before_bytes" -v bal="$before_allocs" \
		-v ans="$after_ns" -v aby="$after_bytes" -v aal="$after_allocs" 'BEGIN {
		printf "{\n"
		printf "  \"benchmark\": \"BenchmarkFig1\",\n"
		printf "  \"before\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s},\n", bns, bby, bal
		printf "  \"after\": {\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s},\n", ans, aby, aal
		printf "  \"allocs_reduction\": %.2f,\n", bal / aal
		printf "  \"bytes_reduction\": %.2f,\n", bby / aby
		printf "  \"ns_reduction\": %.2f\n", bns / ans
		printf "}\n"
	}' > BENCH_9.json
	echo ">> wrote BENCH_9.json (allocs $(awk -v b="$before_allocs" -v a="$after_allocs" 'BEGIN{printf "%.1f", b/a}')x, bytes $(awk -v b="$before_bytes" -v a="$after_bytes" 'BEGIN{printf "%.1f", b/a}')x down from baseline)"
	awk -v bby="$before_bytes" -v bal="$before_allocs" \
		-v aby="$after_bytes" -v aal="$after_allocs" 'BEGIN {
		if (bal / aal < 5) {
			printf "bench.sh: Fig1 allocs/op %s is within 5x of the %s baseline\n", aal, bal
			exit 1
		}
		if (bby / aby < 3) {
			printf "bench.sh: Fig1 bytes/op %s is within 3x of the %s baseline\n", aby, bby
			exit 1
		}
	}' >&2
	echo 'footprint OK'
	exit 0
fi

echo ">> go test -bench (benchtime=$BENCHTIME)"
go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" . | tee "$OUT"

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
	echo "usage: scripts/bench.sh [-check|-footprint]" >&2
	exit 2
	;;
esac

echo 'bench OK'
