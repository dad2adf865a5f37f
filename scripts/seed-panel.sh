#!/bin/sh
# seed-panel runs the whole experiment report over a panel of world seeds —
# -scale small seeds 1-12, then -scale default seeds 1-8 — and prints, per
# scale, each row that FAILs and the seeds it fails at, in catalogue order.
# EXPERIMENTS.md and CI read seed 42 only; the panel shows which rows hold at
# other seeds too. It informs and gates nothing: it exits 0 whatever the rows
# say, and 2 only when the report cannot be built or crashes.
#
#   sh scripts/seed-panel.sh      (or: make seed-panel)
set -eu

cd "$(dirname "$0")/.."
GO=${GO:-go}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
$GO build -o "$tmp/itm-experiments" ./cmd/itm-experiments

# panel SCALE LAST-SEED: one report per seed, then the FAIL table.
panel() {
	: > "$tmp/reports"
	for seed in $(seq 1 "$2"); do
		# Exit 1 means some row failed, which is what the panel looks for.
		rc=0
		"$tmp/itm-experiments" -scale "$1" -seed "$seed" > "$tmp/out" || rc=$?
		[ "$rc" -le 1 ] || { echo "seed-panel: -scale $1 -seed $seed exited $rc" >&2; exit 2; }
		{ echo "#seed $seed"; cat "$tmp/out"; } >> "$tmp/reports"
	done
	echo "$1 (seeds 1-$2):"
	awk '
		$1 == "#seed" { seed = $2 }
		$1 == "==" {
			id = substr($2, 1, length($2) - 1)
			if (!(id in seen)) { seen[id] = 1; order[++n] = id }
			if ($NF == "[FAIL]") fails[id] = fails[id] " " seed
		}
		END {
			for (i = 1; i <= n; i++) if (order[i] in fails) { printf "  %-5s FAIL at seeds%s\n", order[i], fails[order[i]]; any = 1 }
			if (!any) print "  every row passes at every seed"
		}' "$tmp/reports"
}

panel small 12
panel default 8
