#!/bin/sh
# Benchmark entry point, shared by `make bench` and CI.
#
#   scripts/bench.sh            run the hot-path suite and rewrite
#                               BENCH_3.json's "current" section
#   scripts/bench.sh -check     run the suite and fail on allocs/op
#                               regressions against BENCH_3.json
#   scripts/bench.sh -shards    run Fig1 sequentially and at -shards 4
#                               and record the wall-clock comparison in
#                               BENCH_8.json
#   scripts/bench.sh -footprint run Fig1 with -benchmem and record the
#                               before/after footprint (ns, bytes,
#                               allocs per op vs the BENCH_3.json
#                               baseline) in BENCH_9.json, failing if
#                               the memory-overhaul reductions regress
#                               (allocs/op >= 5x, bytes/op >= 3x)
#
# The suite covers the perf-critical substrates (event engine, timers,
# SECDED, PCC, RNG, coherence directory, IRLP accounting), one
# end-to-end controller bench, and one full
# figure regeneration — enough to catch both micro-level allocation
# regressions and macro-level slowdowns without CI running every
# figure. BENCHTIME trades precision for CI time.
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-1s}"
PATTERN='^(BenchmarkEngine|BenchmarkEngineTimer|BenchmarkEngineTraceDisabled|BenchmarkSECDEDEncode|BenchmarkSECDEDCorrect|BenchmarkSECDEDDecodeClean|BenchmarkPCCReconstruct|BenchmarkPCCUpdate|BenchmarkRNGUint64|BenchmarkRNGExp|BenchmarkRNGPick|BenchmarkCacheLoadHit|BenchmarkStoreGetWarm|BenchmarkAnalyzeLineWrite|BenchmarkGeneratorNext|BenchmarkDirectory|BenchmarkIRLPStream|BenchmarkControllerRequests|BenchmarkFig1|BenchmarkFig1Shards4)$'

OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

# -shards: the PDES scaling record. Runs the same figure regeneration
# on one engine and sharded across 4, and writes both wall-clock
# numbers (plus the host's CPU budget, which bounds the achievable
# speedup) to BENCH_8.json. Outputs are bit-identical by construction —
# scripts/shard_smoke.sh checks that; this records only time.
if [ "${1:-}" = "-shards" ]; then
	echo ">> go test -bench Fig1 sequential vs -shards 4 (benchtime=$BENCHTIME)"
	go test -run '^$' -bench '^(BenchmarkFig1|BenchmarkFig1Shards4)$' \
		-benchtime "$BENCHTIME" . | tee "$OUT"
	seq_ns=$(awk '$1 ~ /^BenchmarkFig1-|^BenchmarkFig1$/ {print $3}' "$OUT")
	par_ns=$(awk '$1 ~ /^BenchmarkFig1Shards4/ {print $3}' "$OUT")
	if [ -z "$seq_ns" ] || [ -z "$par_ns" ]; then
		echo "bench.sh: missing Fig1 results in bench output" >&2
		exit 1
	fi
	ncpu=$(getconf _NPROCESSORS_ONLN 2>/dev/null || nproc 2>/dev/null || echo 1)
	awk -v seq="$seq_ns" -v par="$par_ns" -v ncpu="$ncpu" 'BEGIN {
		printf "{\n"
		printf "  \"benchmark\": \"BenchmarkFig1\",\n"
		printf "  \"shards\": 4,\n"
		printf "  \"sequential_ns_per_op\": %s,\n", seq
		printf "  \"shards4_ns_per_op\": %s,\n", par
		printf "  \"speedup\": %.3f,\n", seq / par
		printf "  \"host_cpus\": %s\n", ncpu
		printf "}\n"
	}' > BENCH_8.json
	echo ">> wrote BENCH_8.json (speedup $(awk -v s="$seq_ns" -v p="$par_ns" 'BEGIN{printf "%.3f", s/p}')x on $ncpu CPUs)"
	exit 0
fi

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
	echo "usage: scripts/bench.sh [-check|-shards|-footprint]" >&2
	exit 2
	;;
esac

echo 'bench OK'
