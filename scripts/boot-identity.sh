#!/usr/bin/env bash
# boot-identity proves a change serves the parent's bytes: it builds itm-serve
# from <parent-ref> and from this checkout, cold-boots each the way the
# benchmark's cold_boot workload does (-scale small -epochs 3 -mesh-agents 24)
# for seeds 1 and 7, captures the whole served surface of both into two
# directories, and `diff -r`s them. Bodies and ETags of every route, and
# /metrics without the itm_http_* families (wall-clock and request counts),
# must be equal; any difference exits 1.
#
#   scripts/boot-identity.sh <parent-ref>      (or: make boot-identity PARENT=<ref>)
#
# Captured per seed: /metrics (first, before any other request), /v1/traces,
# /v1/obs/history, /v1/epochs, every /v1/map/{e} as JSON and as ITMB,
# /v1/trace/epoch-{e}, /v1/top and /v1/latency/top per epoch, adjacent
# /v1/diff, /v1/as for the 64 most active ASes, and /v1/path and /v1/latency
# for the 64 worst mesh pairs. /v1/slo is left out: its body moves with every
# request. Offline: the parent tree comes from `git archive`
# (which, unlike `git worktree add`, registers nothing in .git and so leaves
# nothing behind), and both builds use only the module itself. Everything
# lives under a mktemp directory removed on exit; set KEEP=1 to keep it.
set -euo pipefail

[ $# -eq 1 ] || { echo "usage: boot-identity.sh <parent-ref>" >&2; exit 2; }
ref=$1
GO=${GO:-go}
port=${PORT:-8417}
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
tmp=$(mktemp -d)
pid=
cleanup() {
  [ -z "$pid" ] || kill "$pid" 2>/dev/null || true
  [ -n "${KEEP:-}" ] && echo "boot-identity: kept $tmp" >&2 || rm -rf "$tmp"
}
trap cleanup EXIT

git -C "$root" rev-parse --verify --quiet "$ref^{commit}" >/dev/null ||
  { echo "boot-identity: unknown ref $ref" >&2; exit 2; }
mkdir -p "$tmp/parent-src"
git -C "$root" archive "$ref" | tar -x -C "$tmp/parent-src"
(cd "$tmp/parent-src" && "$GO" build -o "$tmp/parent-serve" ./cmd/itm-serve)
(cd "$root" && "$GO" build -o "$tmp/change-serve" ./cmd/itm-serve)

base=http://127.0.0.1:$port

# fetch NAME URL: body to $out/NAME, its ETag (if any) to $out/NAME.etag.
fetch() {
  curl -s -D "$out/.headers" -o "$out/$1" "$base$2"
  sed -n 's/^[Ee][Tt][Aa][Gg]: *//p' "$out/.headers" | tr -d '\r' >"$out/$1.etag"
  [ -s "$out/$1.etag" ] || rm -f "$out/$1.etag"
}

# numbers FILE KEY: the values of every `"KEY": <number>` line of a body.
numbers() { sed -n "s/^ *\"$2\": \\([0-9][0-9]*\\),*\$/\\1/p" "$1"; }

# capture BINARY SEED DIR: boot, walk the served surface into DIR, stop.
capture() {
  out=$3
  mkdir -p "$out"
  "$1" -addr "127.0.0.1:$port" -scale small -epochs 3 -mesh-agents 24 -seed "$2" 2>"$out.log" &
  pid=$!
  for _ in $(seq 1 300); do
    curl -sf "$base/healthz" >/dev/null 2>&1 && break
    kill -0 "$pid" 2>/dev/null || { echo "boot-identity: $1 exited; see $out.log" >&2; cat "$out.log" >&2; exit 1; }
    sleep 0.2
  done
  curl -sf "$base/metrics" | grep -v 'itm_http_' >"$out/metrics.txt"
  fetch traces.json /v1/traces
  fetch history.json /v1/obs/history
  fetch epochs.json /v1/epochs
  epochs=$(numbers "$out/epochs.json" id)
  prev=
  for e in $epochs; do
    fetch "map-$e.json" "/v1/map/$e"
    fetch "map-$e.itmb" "/v1/map/$e?format=binary"
    fetch "trace-epoch-$e.json" "/v1/trace/epoch-$e"
    fetch "top-$e.json" "/v1/top?epoch=$e&k=64"
    fetch "latency-top-$e.json" "/v1/latency/top?epoch=$e&k=64"
    [ -z "$prev" ] || fetch "diff-$prev-$e.json" "/v1/diff/$prev/$e"
    prev=$e
  done
  for asn in $(numbers "$out/top-$prev.json" asn); do
    fetch "as-$asn.json" "/v1/as/$asn"
  done
  paste -d' ' <(numbers "$out/latency-top-$prev.json" a) <(numbers "$out/latency-top-$prev.json" b) |
    while read -r a b; do
      fetch "path-$a-$b.json" "/v1/path/$a/$b"
      fetch "latency-$a-$b.json" "/v1/latency/$a/$b"
    done
  rm -f "$out/.headers"
  kill "$pid"
  wait "$pid" 2>/dev/null || true
  pid=
}

for seed in 1 7; do
  capture "$tmp/parent-serve" "$seed" "$tmp/parent/seed-$seed"
  capture "$tmp/change-serve" "$seed" "$tmp/change/seed-$seed"
done

files=$(find "$tmp/change" -type f ! -name '*.log' | wc -l)
if diff -r -x '*.log' "$tmp/parent" "$tmp/change"; then
  echo "boot-identity: OK ($files files a side identical to $ref: bodies, ETags, stable metrics; seeds 1 and 7)"
else
  echo "boot-identity: FAIL — the change does not serve $ref's bytes" >&2
  exit 1
fi
