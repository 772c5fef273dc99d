# Development workflow for the ReACH reproduction.
#
#   make check       — everything CI runs: formatting, build, vet (the
#                      root module and the bench/ module), race tests
#                      (reachsim's end-to-end TestCLI matrix included), the
#                      bench/ module's tests, 10 s each of fuzzing the
#                      four-row distance kernel against SquaredL2, the
#                      MultiEngine coordinator against one Engine, reset
#                      job graphs against fresh ones, the metrics CSV's
#                      integer microsecond formatter against FormatFloat,
#                      random reach programs against a second run of
#                      themselves, the trace's counter lanes against
#                      their every-sample rendering with repeats dropped,
#                      the metrics series' change runs against a dense
#                      six-column reference and the SLO monitor's ring
#                      windows against a grouped reference, and bench-smoke
#   make test        — fast tier-1 gate (what ROADMAP.md calls the verify step)
#   make bench       — root + sim benchmarks with allocation stats
#   make bench-smoke — 1x pass over every benchmark, so benchmark code
#                      compiles and runs without paying full benchtime
#                      (the root package's tables, figures, ablations and
#                      cluster scatter-gathers included, the kernels
#                      package's four-row distance kernel beside its
#                      SquaredL2 loop, the GAM's deep-queue dispatch, and
#                      the metrics CSV writer over moving and held series)

GO ?= go

.PHONY: check fmt-check build vet test race bench-test fuzz bench bench-smoke

check: fmt-check build vet race bench-test fuzz bench-smoke

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

# bench/ calls into the simulator's packages (the per-layer ladder builds
# a mem.Controller directly), so its own tests run with every check.
bench-test:
	$(GO) -C bench test ./...

# Coverage-guided fuzzing, 10 s per target: every SquaredL2Rows output
# must be bit for bit the SquaredL2 of its row, a random event graph
# split across MultiEngine domains must dispatch exactly as on one Engine,
# random job graphs run again after Job.Reset must schedule exactly as
# fresh copies, the CSV writer's microseconds from integer picoseconds
# must equal strconv.FormatFloat's for every int64, a random
# Listings-style reach program run twice in one process must give the
# same latencies and energy bit for bit, the Chrome-trace counter
# lanes of randomly scheduled resources must hold exactly the changes of
# their sampled values, and the change runs of randomly scheduled
# resources, sampled by a Sampler and a MultiSampler, must read, write
# CSV, window and attribute exactly as a dense six-column store, and the
# SLO monitor's windows over random nondecreasing completion streams
# (widths from 1 ps to 10,000 s, gaps past its 1,024-window cap) must
# equal every completion grouped by window index with the last 1,024
# indices kept. Plain go test runs only the seeds.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzSquaredL2Rows$$' -fuzztime 10s ./internal/kernels/
	$(GO) test -run '^$$' -fuzz '^FuzzMultiEngine$$' -fuzztime 10s ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzJobReuse$$' -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzAppendUS$$' -fuzztime 10s ./internal/metrics/
	$(GO) test -run '^$$' -fuzz '^FuzzReachProgram$$' -fuzztime 10s ./reach/
	$(GO) test -run '^$$' -fuzz '^FuzzCounterLanes$$' -fuzztime 10s ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzSeriesRuns$$' -fuzztime 10s ./internal/metrics/
	$(GO) test -run '^$$' -fuzz '^FuzzSLOWindows$$' -fuzztime 10s ./internal/flight/

bench:
	$(GO) test -bench . -benchmem -run '^$$' . ./internal/sim/

bench-smoke:
	$(GO) test -bench . -benchtime 1x -benchmem -run '^$$' . ./internal/sim/ ./internal/cbir/ ./internal/trace/ ./internal/metrics/ \
		./internal/cluster/ ./internal/kernels/ ./internal/core/
