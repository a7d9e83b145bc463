# Developer entry points. CI runs the same steps (.github/workflows/ci.yml);
# `make lint` before pushing catches everything the lint job would.

GOBIN := $(shell go env GOPATH)/bin

.PHONY: build test race lint bench bench-ingest bench-baseline

build:
	go build ./...

test: build
	go test ./...

race:
	go test -race ./internal/engine/... ./internal/sqlmini/... ./internal/btree/... ./internal/pages/... ./internal/wal/...

# lint mirrors CI's lint job: formatting, stock vet, and sqlarraylint —
# the repo's own invariant suite (pinleak, latchorder, atomicfield,
# durasync, ctxloop; see internal/analysis). staticcheck additionally
# runs when it is installed; CI always installs it, offline dev
# environments may not have it.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	go vet ./...
	go test ./internal/analysis/...
	go install ./cmd/sqlarraylint
	go vet -vettool="$(GOBIN)/sqlarraylint" ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (CI runs it)"; fi

# The perf-tracking benchmarks, as listed in scripts/bench.list (the
# same list CI's benchmark-smoke step and bench-baseline run).
bench:
	./scripts/bench.sh

# Ingest and partitioned-scan throughput: the COPY path vs the INSERT
# loop (rows/s, MB/s) and a Morton box query on the partitioned layout
# vs an unpartitioned full scan (pages/op). A subset of the bench list.
bench-ingest:
	./scripts/bench.sh 'BenchmarkBulkLoad|BenchmarkPartitionedScanSpeedup'

# Regenerate the checked-in benchmark reference point. Run on a quiet
# machine; the JSON records ns/op per benchmark plus the host's Go
# version so drift is attributable.
bench-baseline:
	./scripts/bench_baseline.sh > BENCH_baseline.json
	@echo "wrote BENCH_baseline.json"
