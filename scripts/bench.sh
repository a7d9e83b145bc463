#!/bin/sh
# Runs the benchmarks listed in scripts/bench.list, one go test call per
# line, printing go test's output. An optional extended regex keeps only
# the list lines it matches (`scripts/bench.sh BenchmarkBulkLoad`). Every
# line runs even if an earlier one fails; the exit status is non-zero
# when any did.
set -eu

cd "$(dirname "$0")/.."

filter="${1:-.}"
status=0
while read -r pkg regex benchtime; do
	case "$pkg" in '' | '#'*) continue ;; esac
	printf '%s %s\n' "$pkg" "$regex" | grep -Eq -- "$filter" || continue
	go test -run='^$' -bench="$regex" -benchtime="$benchtime" "$pkg" || status=1
done <scripts/bench.list
exit "$status"
