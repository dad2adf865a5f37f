#!/usr/bin/env bash
# The repo benchmark's one command (see BENCHMARK.json and benchmark/README.md):
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# It builds the driver from benchmark/ and hands it the arguments; the driver
# builds ./cmd/itm-serve (and, with --trace 1, benchmark/_tracer) from this
# checkout. Every build product, the Go build cache included, stays under
# .bench_build/ in the checkout, so a run reads and writes nothing outside it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
(cd benchmark && go build -o ../.bench_build/itm-benchmark .)
exec .bench_build/itm-benchmark "$@"
