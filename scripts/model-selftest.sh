#!/bin/sh
# model-selftest proves the reference models still catch what they were
# built to catch: a green `go test -run Model` means nothing if a model
# silently stopped looking. The script copies the tree into a throwaway
# directory and applies each patch under scripts/model-mutants/ in turn — each
# plants one bug a model once caught — and requires `go test <pkg> -run Model`
# to fail on every one of them and to pass on the tree as it is. <pkg> is the
# patch's `Model:` header line: ./internal/mapstore (the serving-stack model)
# when there is none, ./internal/measure/cacheprobe for the prober model,
# ./internal/experiments for the epoch campaign's counter timeline and
# ./internal/dnssim for the occupancy decision.
set -u

GO="${GO:-go}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

cd "$REPO_ROOT"
tar --exclude=./.git -cf - . | tar -xf - -C "$TMP"
cd "$TMP"

run() { "$GO" test -count=1 "$1" -run Model >"$TMP/out.txt" 2>&1; }

for pkg in ./internal/mapstore ./internal/measure/cacheprobe ./internal/experiments ./internal/dnssim; do
	run $pkg || { cat "$TMP/out.txt" >&2; echo "model-selftest: the unpatched tree fails the model in $pkg" >&2; exit 1; }
done

n=0
for p in "$REPO_ROOT"/scripts/model-mutants/*.patch; do
	name=$(basename "$p" .patch)
	pkg=$(sed -n 's/^Model: //p' "$p")
	git apply "$p" || { echo "model-selftest: $name no longer applies; refresh the patch" >&2; exit 1; }
	if run "${pkg:-./internal/mapstore}"; then
		echo "model-selftest: the model passes with mutant $name planted" >&2
		exit 1
	fi
	git apply -R "$p" || { echo "model-selftest: $name does not revert cleanly" >&2; exit 1; }
	echo "model-selftest: $name caught: $(grep -m1 -e '--- FAIL' "$TMP/out.txt")"
	n=$((n + 1))
done
[ "$n" -eq 25 ] || { echo "model-selftest: expected 25 mutants, found $n" >&2; exit 1; }
echo "model-selftest: all $n mutants caught"
