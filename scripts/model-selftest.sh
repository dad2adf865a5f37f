#!/bin/sh
# model-selftest proves the mapstore reference model still catches what it
# was built to catch: a green `go test -run Model` means nothing if the model
# silently stopped looking. The script copies the tree into a throwaway
# directory and applies each patch under scripts/model-mutants/ in turn — each
# plants one bug the model once caught — and requires
# `go test ./internal/mapstore -run Model` to fail on every one of them and to
# pass on the tree as it is.
set -u

GO="${GO:-go}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

cd "$REPO_ROOT"
tar --exclude=./.git -cf - . | tar -xf - -C "$TMP"
cd "$TMP"

run() { "$GO" test -count=1 ./internal/mapstore -run Model >"$TMP/out.txt" 2>&1; }

run || { cat "$TMP/out.txt" >&2; echo "model-selftest: the unpatched tree fails the model" >&2; exit 1; }

n=0
for p in "$REPO_ROOT"/scripts/model-mutants/*.patch; do
	name=$(basename "$p" .patch)
	git apply "$p" || { echo "model-selftest: $name no longer applies; refresh the patch" >&2; exit 1; }
	if run; then
		echo "model-selftest: the model passes with mutant $name planted" >&2
		exit 1
	fi
	git apply -R "$p" || { echo "model-selftest: $name does not revert cleanly" >&2; exit 1; }
	echo "model-selftest: $name caught: $(grep -m1 -e '--- FAIL' "$TMP/out.txt")"
	n=$((n + 1))
done
[ "$n" -eq 7 ] || { echo "model-selftest: expected 7 mutants, found $n" >&2; exit 1; }
echo "model-selftest: all $n mutants caught"
