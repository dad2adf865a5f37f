# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet lint lint-selftest model-selftest loc test race cover bench bench-build boot-identity bench-all serve-smoke obs-smoke loadgen-smoke crash-smoke mesh-smoke slo-smoke experiments experiments-md experiments-check seed-panel csv examples clean

all: build vet lint lint-selftest test crash-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific determinism & safety analyzers (internal/analysis).
# Exit 0 clean, 1 on any diagnostic, 2 on load failure. `-json` emits the
# same findings as a sorted JSON array (see cmd/itm-lint doc). Then the
# gofmt gate: any file gofmt would rewrite fails the target. testdata/ is
# exempt — the analyzer fixtures' goldens pin line numbers that gofmt's doc
# comment reflow would shift.
lint:
	$(GO) run ./cmd/itm-lint ./...
	@unformatted=$$(gofmt -l . | grep -v '/testdata/' || true); \
	test -z "$$unformatted" || { echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; }

# Prove the analyzers still fire: plant one violation per analyzer (all
# ten) in a throwaway module and assert itm-lint exits 1 with each
# expected diagnostic. A green `make lint` means nothing if an analyzer
# silently stopped matching.
lint-selftest:
	GO="$(GO)" sh scripts/lint-selftest.sh

# Prove the reference models still catch what they were built to catch:
# apply each scripts/model-mutants/*.patch (one planted bug each) to a
# throwaway copy of the tree and require `go test -run Model` in the package
# the patch names (the serving stack's model in internal/mapstore unless it
# names another: the prober's in internal/measure/cacheprobe, the epoch
# campaign's counter timeline in internal/experiments, the occupancy
# decision's in internal/dnssim) to fail on every one, and all four to pass
# on the tree unpatched.
model-selftest:
	GO="$(GO)" sh scripts/model-selftest.sh

# The line counts simplicity PRs report: non-testdata Go lines outside
# benchmark/, per package and in total (plain `wc -l`), non-test files first,
# then the test files.
loc:
	@sh scripts/loc.sh

test:
	$(GO) test -vet=all ./...

race:
	$(GO) test -race ./...

# Coverage gate for the fault-injection, resilience, and analyzer layers:
# the rest of the repo is exercised end-to-end by the experiments, but these
# packages are the safety net for every measurement client (and for the
# determinism contract itself), so they carry an explicit floor.
COVER_PKGS = ./internal/faults/ ./internal/resilience/ ./internal/analysis/
COVER_FLOOR ?= 85
cover:
	$(GO) test -cover $(COVER_PKGS)
	@$(GO) test -coverprofile=cover.out $(COVER_PKGS) >/dev/null; \
	total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "faults+resilience+analysis coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk "BEGIN {exit !($$total >= $(COVER_FLOOR))}" || \
		{ echo "coverage $$total% below floor $(COVER_FLOOR)%"; exit 1; }

# Deterministic performance counters for the serving layer (codec, store,
# WAL recovery, queries) plus the matrix/BGP hot paths, the cache-probing
# campaigns and a 16-day campaign's maps, then itm-bench's seeded in-process
# sections (campaign, loadgen, overload, mesh and SLO counters), which it
# always writes. Fixed -benchtime
# keeps iteration counts reproducible; itm-bench drops wall-clock metrics
# (those live in benchmark/), so the committed BENCH_serve.json only changes
# when allocation behavior, probe counts or the codec's output actually
# change.
bench:
	@{ $(GO) test -run '^$$' -bench . -benchmem -benchtime 8x ./internal/mapstore/ && \
	   $(GO) test -run '^$$' -bench 'BenchmarkBuildMatrix$$|BenchmarkBuildMatrixSerial$$|BenchmarkComputeAll$$' -benchmem -benchtime 4x . && \
	   $(GO) test -run '^$$' -bench 'BenchmarkMeasureHitRates$$|BenchmarkDiscoverPrefixes$$|BenchmarkDiscoverDays$$' -benchmem -benchtime 4x ./internal/measure/cacheprobe/ && \
	   $(GO) test -run '^$$' -bench 'BenchmarkEpochMaps$$' -benchmem -benchtime 4x ./internal/experiments/ ; } \
	| tee bench_serve.out
	$(GO) run ./cmd/itm-bench -o BENCH_serve.json < bench_serve.out
	@rm -f bench_serve.out

# benchmark/ is a module of its own, outside `go build ./...`: vet it, run
# its unit tests and compile its in-process tracer, which calls into
# internal/... and is otherwise only built by a `--trace 1` benchmark run —
# so a signature change that breaks it fails here, not in a traced session.
# Offline: the module's only dependency is the `replace`d root.
bench-build:
	cd benchmark && $(GO) vet . ./clock ./compare ./spans ./stats && \
		$(GO) test -short ./... && $(GO) build -o /dev/null ./_tracer

# Byte identity of a perf change, as a script: build itm-serve from PARENT
# and from this checkout, cold-boot both (-scale small -epochs 3
# -mesh-agents 24, seeds 1 and 7), capture every route's body and ETag plus
# the stable /metrics, and diff -r. Exit 1 on any difference.
boot-identity:
	@test -n "$(PARENT)" || { echo "usage: make boot-identity PARENT=<ref>"; exit 2; }
	GO="$(GO)" bash scripts/boot-identity.sh "$(PARENT)"

# The full benchmark suite (every paper artifact + substrate + ablations).
bench-all:
	$(GO) test -bench=. -benchmem ./...

# End-to-end smoke: export a tiny-world snapshot, serve it, and check the
# health endpoint plus one deterministic query answer.
serve-smoke:
	@rm -rf smoke && mkdir -p smoke
	$(GO) build -o smoke/itm-serve ./cmd/itm-serve
	$(GO) run ./cmd/itm -scale tiny -seed 42 export -o smoke/snapshot.json
	@smoke/itm-serve -addr 127.0.0.1:8411 -snapshot smoke/snapshot.json & \
	pid=$$!; trap 'kill $$pid 2>/dev/null' EXIT; \
	for i in $$(seq 1 50); do \
		curl -sf http://127.0.0.1:8411/healthz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	set -e; \
	curl -sf http://127.0.0.1:8411/healthz | grep -q '"status": "ok"'; \
	curl -sf 'http://127.0.0.1:8411/v1/top?k=1' > smoke/top.json; \
	grep -q '"asn": 3000' smoke/top.json; \
	grep -q '"activity": 867355232.4158412' smoke/top.json; \
	curl -sf 'http://127.0.0.1:8411/v1/map/0?format=binary' > smoke/epoch0.itmb; \
	curl -sf 'http://127.0.0.1:8411/v1/map/0?format=binary' > smoke/epoch0b.itmb; \
	cmp -s smoke/epoch0.itmb smoke/epoch0b.itmb; \
	echo "serve-smoke: OK (healthz + deterministic top-1 + stable binary export)"
	@rm -rf smoke

# Observability smoke: run a real 2-epoch campaign under itm-serve, then
# check the operational surface — /metrics exposes a broad family set,
# traces export well-formed span trees, the server has no ground-truth
# route (/v1/link is a 404), no link-loads trace and no itm_traffic_ line,
# and wrong-method hits are 405.
obs-smoke:
	@rm -rf obs-smoke && mkdir -p obs-smoke
	$(GO) build -o obs-smoke/itm-serve ./cmd/itm-serve
	@obs-smoke/itm-serve -addr 127.0.0.1:8412 -scale tiny -epochs 2 2>obs-smoke/events.log & \
	pid=$$!; trap 'kill $$pid 2>/dev/null' EXIT; \
	for i in $$(seq 1 150); do \
		curl -sf http://127.0.0.1:8412/healthz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	set -e; \
	curl -sf http://127.0.0.1:8412/metrics > obs-smoke/metrics.txt; \
	families=$$(grep -c '^# TYPE ' obs-smoke/metrics.txt); \
	echo "obs-smoke: $$families metric families"; \
	test "$$families" -ge 20 || { echo "obs-smoke: expected >= 20 families"; exit 1; }; \
	grep -q '^itm_http_requests_total{' obs-smoke/metrics.txt; \
	grep -q '^itm_mapstore_epochs_total 2' obs-smoke/metrics.txt; \
	curl -sf http://127.0.0.1:8412/v1/traces | grep -q '"epoch-0"'; \
	curl -sf http://127.0.0.1:8412/v1/trace/epoch-0 > obs-smoke/trace.json; \
	if grep -q '"name": "traffic.build_matrix"' obs-smoke/trace.json; then echo "obs-smoke: the boot built the matrix into epoch-0"; exit 1; fi; \
	grep -q '"name": "mapstore.append"' obs-smoke/trace.json; \
	code=$$(curl -s -o /dev/null -w '%{http_code}' http://127.0.0.1:8412/v1/link/1/2); \
	test "$$code" = 404 || { echo "obs-smoke: GET /v1/link/1/2 gave $$code, want 404"; exit 1; }; \
	if curl -sf http://127.0.0.1:8412/v1/traces | grep -q '"link-loads"'; then echo "obs-smoke: /v1/traces lists link-loads"; exit 1; fi; \
	if curl -sf http://127.0.0.1:8412/metrics | grep -q 'itm_traffic_'; then echo "obs-smoke: /metrics carries itm_traffic_ lines"; exit 1; fi; \
	grep -q '^# TYPE itm_cache_hits_total counter' obs-smoke/metrics.txt; \
	grep -q '^# TYPE itm_cache_not_modified_total counter' obs-smoke/metrics.txt; \
	grep -q '^itm_cache_prebaked_total 3' obs-smoke/metrics.txt; \
	code=$$(curl -s -o /dev/null -w '%{http_code}' -X POST http://127.0.0.1:8412/v1/top); \
	test "$$code" = 405 || { echo "obs-smoke: POST /v1/top gave $$code, want 405"; exit 1; }; \
	grep -q 'event=serve.listening' obs-smoke/events.log; \
	echo "obs-smoke: OK (metrics families + cache families + trace export + no ground-truth route, trace or family + 405 + structured events)"
	@rm -rf obs-smoke

# Loadgen smoke: serve a tiny snapshot, replay a short deterministic mix
# over HTTP twice — against a fresh server each time, since response caches
# warm as a replay runs — then assert the deterministic counters are
# byte-identical, the cache actually hit, the idle server's in-flight gauge
# reads 0, and the server drained cleanly on SIGTERM.
loadgen-smoke:
	@rm -rf lg-smoke && mkdir -p lg-smoke
	$(GO) build -o lg-smoke/itm-serve ./cmd/itm-serve
	$(GO) build -o lg-smoke/itm-loadgen ./cmd/itm-loadgen
	$(GO) run ./cmd/itm -scale tiny -seed 42 export -o lg-smoke/snapshot.json
	@set -e; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	for run in 1 2; do \
		lg-smoke/itm-serve -addr 127.0.0.1:8413 -snapshot lg-smoke/snapshot.json 2>/dev/null & \
		pid=$$!; \
		for i in $$(seq 1 50); do \
			curl -sf http://127.0.0.1:8413/healthz >/dev/null 2>&1 && break; sleep 0.2; \
		done; \
		lg-smoke/itm-loadgen -addr http://127.0.0.1:8413 -seed 7 -n 800 -workers 4 \
			-counters lg-smoke/counters$$run.json > lg-smoke/summary$$run.txt; \
		cat lg-smoke/summary$$run.txt; \
		for i in $$(seq 1 10); do \
			curl -sf http://127.0.0.1:8413/metrics > lg-smoke/metrics$$run.txt; \
			grep -qx 'itm_admission_inflight 0' lg-smoke/metrics$$run.txt && break; sleep 0.1; \
		done; \
		grep -qx 'itm_admission_inflight 0' lg-smoke/metrics$$run.txt || \
			{ echo "loadgen-smoke: idle server reports $$(grep '^itm_admission_inflight ' lg-smoke/metrics$$run.txt)"; exit 1; }; \
		kill $$pid; \
		wait $$pid || { echo "loadgen-smoke: itm-serve did not shut down cleanly"; exit 1; }; \
	done; \
	cmp -s lg-smoke/counters1.json lg-smoke/counters2.json || \
		{ echo "loadgen-smoke: deterministic counters differ between runs"; exit 1; }; \
	ratio=$$(sed -n 's/.*hit_ratio=\([0-9.]*\).*/\1/p' lg-smoke/summary1.txt); \
	awk "BEGIN {exit !($$ratio > 0)}" || { echo "loadgen-smoke: hit ratio $$ratio not > 0"; exit 1; }; \
	echo "loadgen-smoke: OK (hit_ratio=$$ratio, byte-identical counters, idle in-flight gauge 0, clean shutdown)"
	@rm -rf lg-smoke

# Crash smoke: boot a mesh-enabled itm-serve with a WAL, capture the served
# surface of both layers (the epoch listing, a map as JSON and as ITMB, the
# worst-pairs ranking and one pair's path and latency taken from it — bodies
# and ETags), require that epoch 0's ETag borrowed onto epoch 1's
# /v1/latency/top gets a 200, not a 304, SIGKILL it, smash a torn tail onto the journal as a power cut
# would, and verify the restarted server recovers from the journal alone —
# no world rebuild, no mesh campaign, nothing re-encoded — and serves every
# one of those bytes again. Then saturate the recovered server (1 slot, no
# queue) with an unpaced loadgen burst to prove the admission valve sheds
# visibly, SIGTERM it, and confirm a third boot finds a journal ending
# exactly on a record boundary. Last, the snapshot leg: serve a committed
# snapshot whose keys carry leading zeros and whose lists are empty, SIGKILL
# it, recover, and require the same map, top-K and per-AS bytes and ETags
# before and after. And the refusal leg: plant a snapshot.itwl, the file an
# older, compacting binary left (here a copy of the first leg's journal,
# which an older binary would have replayed), in a fresh WAL directory, and
# require the server to exit non-zero with a serve.exit event naming it,
# never listen, and leave the file byte-unchanged.
crash-smoke:
	@rm -rf crash-smoke && mkdir -p crash-smoke/a crash-smoke/b
	$(GO) build -o crash-smoke/itm-serve ./cmd/itm-serve
	$(GO) build -o crash-smoke/itm-loadgen ./cmd/itm-loadgen
	@set -e; \
	trap 'kill -9 $$pid 2>/dev/null || true' EXIT; \
	base=http://127.0.0.1:8414; \
	fetch() { curl -sf -D crash-smoke/$$1/$$2.hdr -o crash-smoke/$$1/$$2 "$$base$$3"; \
		grep -i '^etag:' crash-smoke/$$1/$$2.hdr > crash-smoke/$$1/$$2.etag; rm crash-smoke/$$1/$$2.hdr; }; \
	surface() { \
		fetch $$1 epochs.json /v1/epochs; \
		fetch $$1 map0.json /v1/map/0; \
		fetch $$1 map1.itmb '/v1/map/1?format=binary'; \
		fetch $$1 latency-top.json /v1/latency/top; \
		fetch $$1 path.json "/v1/path/$$a/$$b"; \
		fetch $$1 latency.json "/v1/latency/$$a/$$b"; \
	}; \
	crash-smoke/itm-serve -addr 127.0.0.1:8414 -scale tiny -epochs 2 -mesh-agents 24 -wal crash-smoke/wal 2>crash-smoke/events1.log & \
	pid=$$!; \
	for i in $$(seq 1 150); do curl -sf $$base/healthz >/dev/null 2>&1 && break; sleep 0.2; done; \
	curl -sf "$$base/v1/latency/top?k=1" > crash-smoke/worst.json; \
	a=$$(sed -n 's/.*"a": \([0-9]*\).*/\1/p' crash-smoke/worst.json | head -1); \
	b=$$(sed -n 's/.*"b": \([0-9]*\).*/\1/p' crash-smoke/worst.json | head -1); \
	test -n "$$a" && test -n "$$b" || { echo "crash-smoke: no ranked pair in /v1/latency/top"; exit 1; }; \
	surface a; \
	tag0=$$(curl -sf -D - -o /dev/null "$$base/v1/latency/top?epoch=0" | sed -n 's/^[Ee][Tt][Aa][Gg]: *//p' | tr -d '\r'); \
	code=$$(curl -s -o /dev/null -w '%{http_code}' -H "If-None-Match: $$tag0" "$$base/v1/latency/top?epoch=1"); \
	test -n "$$tag0" && test "$$code" = 200 || \
		{ echo "crash-smoke: epoch 0's ETag $$tag0 answered $$code on /v1/latency/top?epoch=1, want 200"; exit 1; }; \
	kill -9 $$pid; wait $$pid 2>/dev/null || true; \
	printf 'TORNTAIL' >> crash-smoke/wal/journal.itwl; \
	crash-smoke/itm-serve -addr 127.0.0.1:8414 -wal crash-smoke/wal -mesh-agents 24 -max-inflight 1 -max-queue 0 2>crash-smoke/events2.log & \
	pid=$$!; \
	for i in $$(seq 1 150); do curl -sf $$base/healthz >/dev/null 2>&1 && break; sleep 0.2; done; \
	grep -q 'event=serve.recovered' crash-smoke/events2.log; \
	grep -q 'truncated_tail_bytes=8' crash-smoke/events2.log; \
	! grep -q 'event=serve.building' crash-smoke/events2.log; \
	! grep -q 'event=serve.mesh ' crash-smoke/events2.log; \
	curl -sf $$base/metrics > crash-smoke/metrics2.txt; \
	! grep -q '^itm_mesh_rounds_total [1-9]' crash-smoke/metrics2.txt || { echo "crash-smoke: the recovering boot ran a mesh campaign"; exit 1; }; \
	grep -q '^# TYPE itm_codec_encoded_bytes_total' crash-smoke/metrics2.txt && ! grep -q '^itm_codec_encoded_bytes_total [1-9]' crash-smoke/metrics2.txt || \
		{ echo "crash-smoke: the recovering boot re-encoded journaled epochs"; exit 1; }; \
	surface b; \
	for f in $$(ls crash-smoke/a); do \
		cmp -s crash-smoke/a/$$f crash-smoke/b/$$f || { echo "crash-smoke: $$f diverged after recovery"; exit 1; }; \
	done; \
	test "$$(ls crash-smoke/a | wc -l)" = 12 && test -s crash-smoke/a/path.json.etag && test -s crash-smoke/a/epochs.json.etag || \
		{ echo "crash-smoke: served surface incomplete: $$(ls crash-smoke/a)"; exit 1; }; \
	crash-smoke/itm-loadgen -addr $$base -overload -n 400 -workers 8 -seed 3 > crash-smoke/overload.txt; \
	cat crash-smoke/overload.txt; \
	shed=$$(sed -n 's/.* shed=\([0-9]*\) .*/\1/p' crash-smoke/overload.txt); \
	test "$$shed" -gt 0 || { echo "crash-smoke: overload shed $$shed, want > 0"; exit 1; }; \
	kill $$pid; \
	wait $$pid || { echo "crash-smoke: itm-serve did not drain cleanly on SIGTERM"; exit 1; }; \
	crash-smoke/itm-serve -addr 127.0.0.1:8414 -wal crash-smoke/wal 2>crash-smoke/events3.log & \
	pid=$$!; \
	for i in $$(seq 1 150); do curl -sf $$base/healthz >/dev/null 2>&1 && break; sleep 0.2; done; \
	grep -q 'truncated_tail_bytes=0' crash-smoke/events3.log || { echo "crash-smoke: journal did not end on a record boundary after drain"; exit 1; }; \
	kill $$pid; wait $$pid 2>/dev/null || true; \
	snap() { fetch $$1 snap-map0.json /v1/map/0; fetch $$1 snap-top.json /v1/top; fetch $$1 snap-as.json /v1/as/64500; }; \
	crash-smoke/itm-serve -addr 127.0.0.1:8414 -snapshot cmd/itm-serve/testdata/respelled.json -wal crash-smoke/snap-wal 2>crash-smoke/events4.log & \
	pid=$$!; \
	for i in $$(seq 1 150); do curl -sf $$base/healthz >/dev/null 2>&1 && break; sleep 0.2; done; \
	snap a; \
	kill -9 $$pid; wait $$pid 2>/dev/null || true; \
	crash-smoke/itm-serve -addr 127.0.0.1:8414 -wal crash-smoke/snap-wal 2>crash-smoke/events5.log & \
	pid=$$!; \
	for i in $$(seq 1 150); do curl -sf $$base/healthz >/dev/null 2>&1 && break; sleep 0.2; done; \
	grep -q 'event=serve.recovered' crash-smoke/events5.log; \
	snap b; \
	for f in snap-map0.json snap-top.json snap-as.json; do \
		cmp -s crash-smoke/a/$$f crash-smoke/b/$$f && cmp -s crash-smoke/a/$$f.etag crash-smoke/b/$$f.etag || \
			{ echo "crash-smoke: snapshot leg: $$f or its ETag diverged after recovery"; exit 1; }; \
	done; \
	kill $$pid; wait $$pid 2>/dev/null || true; \
	mkdir crash-smoke/old-wal; \
	cp crash-smoke/wal/journal.itwl crash-smoke/old-wal/snapshot.itwl; \
	if timeout 60 crash-smoke/itm-serve -addr 127.0.0.1:8414 -wal crash-smoke/old-wal 2>crash-smoke/events6.log; then \
		echo "crash-smoke: refusal leg: itm-serve exited 0 beside a snapshot.itwl"; exit 1; fi; \
	grep -q 'event=serve.exit .*snapshot.itwl' crash-smoke/events6.log || \
		{ echo "crash-smoke: refusal leg: no serve.exit naming snapshot.itwl"; cat crash-smoke/events6.log; exit 1; }; \
	! grep -q 'event=serve.listening' crash-smoke/events6.log || { echo "crash-smoke: refusal leg: itm-serve listened"; exit 1; }; \
	cmp -s crash-smoke/wal/journal.itwl crash-smoke/old-wal/snapshot.itwl || \
		{ echo "crash-smoke: refusal leg: snapshot.itwl changed"; exit 1; }; \
	echo "crash-smoke: OK (torn-tail recovery identity, map and mesh AS$$a<->AS$$b + overload shed=$$shed + record-boundary shutdown + respelled snapshot + snapshot.itwl refused)"
	@rm -rf crash-smoke

# Mesh smoke: prove the vantage-fleet mesh is worker-count-invariant at the
# byte level (itm-mesh -workers 1 vs 4 → identical ITMB v2 sections), then
# boot a mesh-enabled itm-serve, discover the worst pair from
# /v1/latency/top, and query both user↔user routes — stable bodies on
# re-fetch, and a 304 when revalidating with the served ETag.
mesh-smoke:
	@rm -rf mesh-smoke && mkdir -p mesh-smoke
	$(GO) build -o mesh-smoke/itm-mesh ./cmd/itm-mesh
	$(GO) build -o mesh-smoke/itm-serve ./cmd/itm-serve
	mesh-smoke/itm-mesh -scale tiny -seed 42 -agents 24 -rounds 2 -profile lossy -workers 1 -o mesh-smoke/mesh-w1.itmb > /dev/null
	mesh-smoke/itm-mesh -scale tiny -seed 42 -agents 24 -rounds 2 -profile lossy -workers 4 -o mesh-smoke/mesh-w4.itmb > /dev/null
	@cmp -s mesh-smoke/mesh-w1.itmb mesh-smoke/mesh-w4.itmb || \
		{ echo "mesh-smoke: mesh sections differ between workers 1 and 4"; exit 1; }
	@set -e; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	mesh-smoke/itm-serve -addr 127.0.0.1:8415 -scale tiny -epochs 2 -mesh-agents 24 -mesh-profile calm 2>mesh-smoke/events.log & \
	pid=$$!; \
	for i in $$(seq 1 150); do curl -sf http://127.0.0.1:8415/healthz >/dev/null 2>&1 && break; sleep 0.2; done; \
	curl -sf 'http://127.0.0.1:8415/v1/latency/top?k=1' > mesh-smoke/top.json; \
	a=$$(sed -n 's/.*"a": \([0-9]*\).*/\1/p' mesh-smoke/top.json | head -1); \
	b=$$(sed -n 's/.*"b": \([0-9]*\).*/\1/p' mesh-smoke/top.json | head -1); \
	test -n "$$a" && test -n "$$b" || { echo "mesh-smoke: no ranked pair in /v1/latency/top"; exit 1; }; \
	curl -sf -D mesh-smoke/path-h.txt "http://127.0.0.1:8415/v1/path/$$a/$$b" > mesh-smoke/path.json; \
	grep -q '"path"' mesh-smoke/path.json; \
	curl -sf "http://127.0.0.1:8415/v1/path/$$a/$$b" > mesh-smoke/path2.json; \
	cmp -s mesh-smoke/path.json mesh-smoke/path2.json || { echo "mesh-smoke: /v1/path body unstable"; exit 1; }; \
	curl -sf "http://127.0.0.1:8415/v1/latency/$$a/$$b" > mesh-smoke/lat.json; \
	grep -q '"mean_rtt_ms"' mesh-smoke/lat.json; \
	etag=$$(sed -n 's/^[Ee][Tt][Aa][Gg]: \(.*\)/\1/p' mesh-smoke/path-h.txt | tr -d '\r'); \
	code=$$(curl -s -o /dev/null -w '%{http_code}' -H "If-None-Match: $$etag" "http://127.0.0.1:8415/v1/path/$$a/$$b"); \
	test "$$code" = 304 || { echo "mesh-smoke: revalidation gave $$code, want 304"; exit 1; }; \
	kill $$pid; wait $$pid 2>/dev/null || true; \
	echo "mesh-smoke: OK (worker-invariant mesh bytes + AS$$a<->AS$$b path/latency + 304 revalidation)"
	@rm -rf mesh-smoke

# SLO smoke: boot a mesh-enabled multi-epoch itm-serve twice (mesh fleet
# workers 1 then 4) and assert the telemetry history body is byte-identical — the
# obs v2 determinism contract, end to end over HTTP. Then replay a seeded
# loadgen mix against the workers-4 server and check the judgment surface:
# /v1/slo reports every objective met, /healthz carries per-objective
# statuses, and itm-top -once renders a full dashboard frame from the live
# endpoints.
slo-smoke:
	@rm -rf slo-smoke && mkdir -p slo-smoke
	$(GO) build -o slo-smoke/itm-serve ./cmd/itm-serve
	$(GO) build -o slo-smoke/itm-loadgen ./cmd/itm-loadgen
	$(GO) build -o slo-smoke/itm-top ./cmd/itm-top
	@set -e; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	slo-smoke/itm-serve -addr 127.0.0.1:8416 -scale tiny -epochs 3 -workers 1 -mesh-agents 24 -mesh-profile calm 2>slo-smoke/events1.log & \
	pid=$$!; \
	for i in $$(seq 1 150); do curl -sf http://127.0.0.1:8416/healthz >/dev/null 2>&1 && break; sleep 0.2; done; \
	curl -sf http://127.0.0.1:8416/v1/obs/history > slo-smoke/history-w1.json; \
	kill $$pid; wait $$pid 2>/dev/null || true; \
	slo-smoke/itm-serve -addr 127.0.0.1:8416 -scale tiny -epochs 3 -workers 4 -mesh-agents 24 -mesh-profile calm 2>slo-smoke/events2.log & \
	pid=$$!; \
	for i in $$(seq 1 150); do curl -sf http://127.0.0.1:8416/healthz >/dev/null 2>&1 && break; sleep 0.2; done; \
	curl -sf http://127.0.0.1:8416/v1/obs/history > slo-smoke/history-w4.json; \
	cmp -s slo-smoke/history-w1.json slo-smoke/history-w4.json || \
		{ echo "slo-smoke: history body differs between workers 1 and 4"; exit 1; }; \
	curl -sf http://127.0.0.1:8416/v1/obs/history/itm_mapstore_epochs_total | grep -q '"family": "itm_mapstore_epochs_total"'; \
	slo-smoke/itm-loadgen -addr http://127.0.0.1:8416 -seed 7 -n 600 -workers 4 > slo-smoke/loadgen.txt; \
	curl -sf http://127.0.0.1:8416/v1/slo > slo-smoke/slo.json; \
	grep -q '"all_met": true' slo-smoke/slo.json || { echo "slo-smoke: objectives not all met"; cat slo-smoke/slo.json; exit 1; }; \
	grep -q '"name": "availability"' slo-smoke/slo.json; \
	grep -q '"name": "mesh_path_completeness"' slo-smoke/slo.json; \
	curl -sf http://127.0.0.1:8416/healthz > slo-smoke/healthz.json; \
	grep -q '"status": "ok"' slo-smoke/healthz.json; \
	grep -q '"slo"' slo-smoke/healthz.json; \
	slo-smoke/itm-top -addr http://127.0.0.1:8416 -once > slo-smoke/top.txt; \
	grep -q 'SLO objectives' slo-smoke/top.txt; \
	grep -q 'History ring' slo-smoke/top.txt; \
	grep -q 'availability' slo-smoke/top.txt; \
	grep -q 'Worst traces' slo-smoke/top.txt; \
	kill $$pid; wait $$pid 2>/dev/null || true; \
	echo "slo-smoke: OK (worker-invariant history + all objectives met + healthz SLO detail + itm-top frame)"
	@rm -rf slo-smoke

# Regenerate every table/figure at full scale (exit code reflects PASS/FAIL).
experiments:
	$(GO) run ./cmd/itm-experiments -scale default -seed 42

# Rebuild EXPERIMENTS.md's body (prepend the hand-written preamble yourself).
experiments-md:
	$(GO) run ./cmd/itm-experiments -scale default -seed 42 -markdown

# EXPERIMENTS.md cannot drift: regenerate the report's body and diff it
# against the committed file from its first "### " heading to the end. A row
# that FAILs prints a different body, so it fails the check too.
experiments-check:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/itm-experiments -scale default -seed 42 -markdown > "$$tmp/body.md" || true; \
	sed -n '/^### /,$$p' EXPERIMENTS.md | diff -u - "$$tmp/body.md" || \
		{ echo "experiments-check: EXPERIMENTS.md differs from the report; regenerate its body with make experiments-md"; exit 1; }; \
	echo "experiments-check: OK (EXPERIMENTS.md is what -scale default -seed 42 prints)"

# Which rows FAIL at which seeds: the whole report at -scale small seeds
# 1-12 and -scale default seeds 1-8. Informational: it gates nothing.
seed-panel:
	GO="$(GO)" sh scripts/seed-panel.sh

# Figure series as CSV for plotting.
csv:
	$(GO) run ./cmd/itm-experiments -scale default -seed 42 -csv figures/ >/dev/null

examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d | head -20; echo; done

clean:
	rm -rf figures/ test_output.txt bench_output.txt cover.out
