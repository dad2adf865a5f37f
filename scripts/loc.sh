#!/bin/sh
# loc counts the lines a simplicity PR reports, one way: Go files outside
# testdata/ and benchmark/ (a module of its own, frozen by BENCHMARK.json),
# `wc -l` per package and in total — first the non-test files, then, marked
# "(test)", the *_test.go files. Nothing cleverer — comments and blank lines
# count, so the numbers are comparable across PRs. Run it from a checkout of
# the parent to get the "before" column.
set -eu

cd "$(dirname "$0")/.."

# count SUFFIX FIND-PREDICATE...: the table for the Go files the predicate
# selects, each line marked with SUFFIX.
count() {
	suffix=$1
	shift
	find . -name '*.go' "$@" ! -path '*/testdata/*' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 |
		xargs -0 wc -l |
		awk -v suffix="$suffix" '$2 != "total" {
			dir = $2; sub(/^\.\//, "", dir); sub(/\/?[^\/]*$/, "", dir); if (dir == "") dir = "."
			lines[dir] += $1; total += $1
		}
		END {
			for (d in lines) printf "%7d %s%s\n", lines[d], d, suffix | "sort -k2"
			close("sort -k2")
			printf "%7d total%s\n", total, suffix
		}'
}

count "" ! -name '*_test.go'
count " (test)" -name '*_test.go'
