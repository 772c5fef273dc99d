# Development workflow for the ReACH reproduction.
#
#   make check       — everything CI runs: formatting, build, vet (the
#                      root module and the bench/ module), race tests
#   make test        — fast tier-1 gate (what ROADMAP.md calls the verify step)
#   make bench       — root + sim benchmarks with allocation stats
#   make bench-smoke — 1x pass over every benchmark, so benchmark code
#                      compiles and runs in CI without paying full benchtime
#   make metrics-smoke — end-to-end observability check: run reachsim with
#                      -metrics/-spans/-trace and validate the CSV schema,
#                      the Chrome-trace JSON and the bottleneck report
#   make qtrace-smoke — per-query tracing check: a Poisson tail-latency
#                      sweep with the live inspector on an ephemeral port,
#                      curl its progress/expvar endpoints mid-run, then
#                      validate the per-query CSV dumps
#   make cluster-smoke — cluster scatter-gather check: a pinned 4-node
#                      run with the inspector on an ephemeral port, its
#                      summary table diffed against the committed golden
#                      and the inspector snapshots validated
#   make cache-smoke — front-end result-cache check: the pinned cluster
#                      run with -cache 32 must emit the cache rows and
#                      the cache sweep its p99 headline
#   make cluster-obs-smoke — cluster observability check: one flash-crowd
#                      run with every sink on (-metrics, -spans, -trace,
#                      -slo, -flight -detect) must cut exactly one
#                      diagnostic bundle (slo-burn verdict,
#                      queue-dominated window) and emit a parseable trace,
#                      a schema-true metrics CSV and the straggler and SLO
#                      tables

GO ?= go
SMOKE_DIR := metrics-smoke-out
QSMOKE_DIR := qtrace-smoke-out
CSMOKE_DIR := cluster-smoke-out
CACHESMOKE_DIR := cache-smoke-out
OBSSMOKE_DIR := cluster-obs-smoke-out

.PHONY: check fmt-check build vet test race bench bench-smoke metrics-smoke qtrace-smoke cluster-smoke cache-smoke cluster-obs-smoke

check: fmt-check build vet race

# gofmt -l prints offending files; any output fails the target.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

build:
	$(GO) build ./...

# bench/ is a module of its own, so the root ./... never compiles it;
# vetting it here catches API changes that break the benchmark harness.
vet:
	$(GO) vet ./...
	$(GO) -C bench vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchmem -run '^$$' . ./internal/sim/

bench-smoke:
	$(GO) test -bench . -benchtime 1x -benchmem -run '^$$' ./internal/sim/ ./internal/cbir/
	$(GO) test -bench BenchmarkFullEvaluation -benchtime 1x -run '^$$' .

# End-to-end observability smoke: a sampled experiment sweep (CSV dump +
# bottleneck tables) and an instrumented trace (counter lanes + GAM spans),
# then schema/JSON validation via the env-gated test in cmd/reachsim.
metrics-smoke:
	rm -rf $(SMOKE_DIR) && mkdir -p $(SMOKE_DIR)
	$(GO) run ./cmd/reachsim -exp fig9 -metrics $(SMOKE_DIR)/metrics.csv \
		-metrics-interval 200us -spans > $(SMOKE_DIR)/report.txt
	$(GO) run ./cmd/reachsim -trace $(SMOKE_DIR)/trace.json -spans \
		-metrics-interval 500us
	METRICS_SMOKE_DIR=$$PWD/$(SMOKE_DIR) $(GO) test -run TestMetricsSmokeArtifacts -v ./cmd/reachsim/

# Per-query tracing smoke: the Poisson tail-latency sweep with -qtrace and
# the inspector on an ephemeral port. The recipe scrapes the bound address
# from stderr, snapshots /progress and /debug/vars while the sweep runs,
# waits for a clean exit, then validates every artifact via the env-gated
# test in cmd/reachsim.
qtrace-smoke:
	rm -rf $(QSMOKE_DIR) && mkdir -p $(QSMOKE_DIR)
	$(GO) build -o $(QSMOKE_DIR)/reachsim ./cmd/reachsim
	@set -e; \
	$(QSMOKE_DIR)/reachsim -exp taillatency -http 127.0.0.1:0 -http-linger 120s \
		-qtrace $(QSMOKE_DIR)/queries.csv \
		> $(QSMOKE_DIR)/report.txt 2> $(QSMOKE_DIR)/stderr.log & \
	pid=$$!; \
	for i in $$(seq 1 600); do \
		grep -q '^per-query traces' $(QSMOKE_DIR)/stderr.log && break; sleep 0.1; \
	done; \
	if ! grep -q '^per-query traces' $(QSMOKE_DIR)/stderr.log; then \
		echo "sweep never finished"; kill $$pid 2>/dev/null; exit 1; fi; \
	addr=$$(sed -n 's#^inspector listening on http://##p' $(QSMOKE_DIR)/stderr.log); \
	curl -sf "http://$$addr/progress" > $(QSMOKE_DIR)/progress.json || { kill $$pid 2>/dev/null; exit 1; }; \
	curl -sf "http://$$addr/debug/vars" > $(QSMOKE_DIR)/expvar.json || { kill $$pid 2>/dev/null; exit 1; }; \
	kill $$pid; wait $$pid 2>/dev/null || true
	QTRACE_SMOKE_DIR=$$PWD/$(QSMOKE_DIR) $(GO) test -run TestQTraceSmokeArtifacts -v ./cmd/reachsim/

# Cluster scatter-gather smoke: the pinned 4-node -cluster run with the
# live inspector on an ephemeral port. The recipe waits for the run to
# drain, scrapes /progress and /debug/vars, diffs the summary table
# against the committed golden, then validates every artifact via the
# env-gated test in cmd/reachsim.
cluster-smoke:
	rm -rf $(CSMOKE_DIR) && mkdir -p $(CSMOKE_DIR)
	$(GO) build -o $(CSMOKE_DIR)/reachsim ./cmd/reachsim
	@set -e; \
	$(CSMOKE_DIR)/reachsim -cluster -http 127.0.0.1:0 -http-linger 120s \
		> $(CSMOKE_DIR)/report.txt 2> $(CSMOKE_DIR)/stderr.log & \
	pid=$$!; \
	for i in $$(seq 1 600); do \
		grep -q '^cluster run complete' $(CSMOKE_DIR)/stderr.log && break; sleep 0.1; \
	done; \
	if ! grep -q '^cluster run complete' $(CSMOKE_DIR)/stderr.log; then \
		echo "cluster run never finished"; kill $$pid 2>/dev/null; exit 1; fi; \
	addr=$$(sed -n 's#^inspector listening on http://##p' $(CSMOKE_DIR)/stderr.log); \
	curl -sf "http://$$addr/progress" > $(CSMOKE_DIR)/progress.json || { kill $$pid 2>/dev/null; exit 1; }; \
	curl -sf "http://$$addr/debug/vars" > $(CSMOKE_DIR)/expvar.json || { kill $$pid 2>/dev/null; exit 1; }; \
	kill $$pid; wait $$pid 2>/dev/null || true
	diff cmd/reachsim/testdata/cluster_smoke.golden $(CSMOKE_DIR)/report.txt
	CLUSTER_SMOKE_DIR=$$PWD/$(CSMOKE_DIR) $(GO) test -run TestClusterSmokeArtifacts -v ./cmd/reachsim/

# Front-end cache smoke: the -cache 32 run carries the cache accounting
# rows and the cache sweep its headline. The cache-off golden and the
# race run over the cache tests are part of make check.
cache-smoke:
	rm -rf $(CACHESMOKE_DIR) && mkdir -p $(CACHESMOKE_DIR)
	$(GO) build -o $(CACHESMOKE_DIR)/reachsim ./cmd/reachsim
	$(CACHESMOKE_DIR)/reachsim -cluster -cache 32 > $(CACHESMOKE_DIR)/cache.txt
	grep -q 'cache hit rate %' $(CACHESMOKE_DIR)/cache.txt
	$(CACHESMOKE_DIR)/reachsim -exp cachesweep > $(CACHESMOKE_DIR)/cachesweep.txt
	grep -q 'cache-off p99' $(CACHESMOKE_DIR)/cachesweep.txt

# Cluster observability smoke: one flash-crowd -cluster run with every
# sink on, the flags of the benchmark's cluster-observed workload. The
# flight recorder's burn-rate detector must fire exactly once and cut one
# bundle whose verdict and straggler table are queue-dominated; the
# report must carry the straggler and SLO headlines; the env-gated test
# then validates the report, the metrics CSV and the trace. The obs-off
# golden and the in-process flight acceptance tests run under make check.
cluster-obs-smoke:
	rm -rf $(OBSSMOKE_DIR) && mkdir -p $(OBSSMOKE_DIR)
	$(GO) build -o $(OBSSMOKE_DIR)/reachsim ./cmd/reachsim
	$(OBSSMOKE_DIR)/reachsim -cluster -slo 400 -arrival flash \
		-flight $(OBSSMOKE_DIR)/bundles -detect -metrics $(OBSSMOKE_DIR)/metrics.csv \
		-spans -trace $(OBSSMOKE_DIR)/trace.json > $(OBSSMOKE_DIR)/report.txt
	test "$$(ls $(OBSSMOKE_DIR)/bundles | wc -l)" -eq 1
	grep -q '"detector": "slo-burn"' $(OBSSMOKE_DIR)/bundles/bundle-*/verdict.json
	grep -q '"dominant_cause": "queue"' $(OBSSMOKE_DIR)/bundles/bundle-*/verdict.json
	grep -q 'overall dominant cause queue' $(OBSSMOKE_DIR)/bundles/bundle-*/stragglers.txt
	grep -q 'Straggler attribution' $(OBSSMOKE_DIR)/report.txt
	grep -q 'SLO windows' $(OBSSMOKE_DIR)/report.txt
	CLUSTER_OBS_SMOKE_DIR=$$PWD/$(OBSSMOKE_DIR) $(GO) test -run TestClusterObsSmokeArtifacts -v ./cmd/reachsim/
