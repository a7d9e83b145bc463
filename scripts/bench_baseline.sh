#!/bin/sh
# Emits BENCH_baseline.json: one short run of every perf-tracking
# benchmark in scripts/bench.list, as {"meta": {...}, "benchmarks":
# [{"name", "iterations", "ns_per_op"}, ...]}. Run via
# `make bench-baseline` on a quiet machine.
set -eu

cd "$(dirname "$0")/.."

{
	# Every benchmark in scripts/bench.list; a failing one is left out.
	./scripts/bench.sh 2>/dev/null | grep -E '^Benchmark' || true
	# The codec ratio table prints parseable "ratio-table:" lines with the
	# compression ratio and encode/decode throughput per codec/data shape.
	go test -run TestCompressionRatioTable -v ./internal/blob 2>/dev/null |
		grep -E 'ratio-table:' || true
} | awk -v gover="$(go version | awk '{print $3}')" -v date="$(date -u +%Y-%m-%d)" '
BEGIN {
	printf "{\n  \"meta\": {\n"
	printf "    \"date\": \"%s\",\n", date
	printf "    \"go\": \"%s\",\n", gover
	printf "    \"note\": \"short -benchtime runs; a reference point for trend comparison, not a gate\"\n"
	printf "  },\n  \"benchmarks\": [\n"
	n = 0
	r = 0
}
/^Benchmark/ {
	if (n++) printf ",\n"
	printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s}", $1, $2, $3
}
/ratio-table:/ {
	# "ratio-table: name=lz/int64-seq ratio=25.31 enc_mbps=410 dec_mbps=1190"
	name = ""; ratio = ""; enc = ""; dec = ""
	for (i = 1; i <= NF; i++) {
		if (split($i, kv, "=") == 2) {
			if (kv[1] == "name") name = kv[2]
			else if (kv[1] == "ratio") ratio = kv[2]
			else if (kv[1] == "enc_mbps") enc = kv[2]
			else if (kv[1] == "dec_mbps") dec = kv[2]
		}
	}
	if (name != "")
		rows[r++] = sprintf("    {\"name\": \"%s\", \"ratio\": %s, \"enc_mbps\": %s, \"dec_mbps\": %s}", name, ratio, enc, dec)
}
END {
	printf "\n  ],\n  \"compression_ratios\": [\n"
	for (i = 0; i < r; i++) printf "%s%s\n", rows[i], (i < r - 1 ? "," : "")
	printf "  ]\n}\n"
}
'
