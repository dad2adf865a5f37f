#!/bin/sh
# loc counts the lines a simplicity PR reports, one way: non-test Go files
# outside testdata/ and benchmark/ (a module of its own, frozen by
# BENCHMARK.json), `wc -l` per package and in total. Nothing cleverer —
# comments and blank lines count, so the number is comparable across PRs.
# Run it from a checkout of the parent to get the "before" column.
set -eu

cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 |
	xargs -0 wc -l |
	awk '$2 != "total" {
		dir = $2; sub(/^\.\//, "", dir); sub(/\/?[^\/]*$/, "", dir); if (dir == "") dir = "."
		lines[dir] += $1; total += $1
	}
	END {
		for (d in lines) printf "%7d %s\n", lines[d], d | "sort -k2"
		close("sort -k2")
		printf "%7d total\n", total
	}'
