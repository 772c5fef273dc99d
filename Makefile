# Development workflow for the ReACH reproduction.
#
#   make check       — everything CI runs: formatting, build, a check that
#                      reachsim links no network stack, an arm64
#                      cross build and vet, vet (the root module and the
#                      bench/ module), race tests (reachsim's end-to-end
#                      TestCLI matrix included), the bench/ module's tests,
#                      10 s of fuzzing each Fuzz target the root module's
#                      tests define, and bench-smoke
#   make cross       — GOARCH=arm64 build of everything and vet of the
#                      kernels and cbir packages, so the portable bodies
#                      of the lane distance kernels keep compiling, and a
#                      GOARCH=386 run of those two packages' tests, so
#                      k-means runs its bit-identity and work-count tests
#                      over the portable kernels
#   make fuzz        — every Fuzz target of every package, 10 s each,
#                      minimizing a new input for at most 1 s
#   make test        — fast tier-1 gate (what ROADMAP.md calls the verify step)
#   make bench       — root + sim benchmarks with allocation stats
#   make bench-smoke — 1x pass over every benchmark, so benchmark code
#                      compiles and runs without paying full benchtime
#                      (the root package's tables, figures, ablations and
#                      cluster scatter-gathers included, the kernels
#                      package's lane distance kernels beside their
#                      SquaredL2 loop, the GAM's deep-queue dispatch, the
#                      metrics CSV writer over moving and held series, and
#                      the flight recorder's overhead gates: one armed
#                      completion and the pinned cluster run with the
#                      recorder off, recording and detecting)

GO ?= go

.PHONY: check fmt-check build no-net cross vet test race bench-test fuzz bench bench-smoke

check: fmt-check build no-net cross vet race bench-test fuzz bench-smoke

# gofmt -l prints offending files; any output fails the target.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

build:
	$(GO) build ./...

# Every reachsim start pays to initialise the packages it links, and the
# benchmark times each start (setup_s). Its results are tables and files,
# so the network and web stack stay out of its dependencies.
no-net:
	@bad="$$($(GO) list -deps ./cmd/reachsim | grep -Ex 'net|net/http|crypto/tls|expvar' || true)"; \
	if [ -n "$$bad" ]; then \
		echo "cmd/reachsim depends on:"; echo "$$bad"; exit 1; \
	fi

# The lane distance kernels and the bound relaxation (internal/kernels)
# run SSE assembly on amd64 and plain Go on every other GOARCH; this keeps
# the second side compiling and vetted. On amd64 only FuzzSquaredL2Rows
# and FuzzRelaxBounds run both sides, so the kernels and k-means tests
# also run as 386 binaries, which an amd64 Linux host runs natively and
# which take the plain-Go side.
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/kernels ./internal/cbir
	GOARCH=386 $(GO) test ./internal/kernels ./internal/cbir

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

# Coverage-guided fuzzing: go test -list finds the Fuzz targets of every
# package of the root module, and each one runs for 10 s (a target's doc
# comment says what it checks). Minimizing a new interesting input gets
# at most 1 s, not Go's default 60 s, which can eat a target's whole 10 s.
# The target fails when a package does not build, when it finds no Fuzz
# target, or when any target fails. Plain go test runs only the seeds.
fuzz:
	@set -e; n=0; \
	for pkg in $$($(GO) list ./...); do \
		targets=$$($(GO) test -list '^Fuzz' $$pkg); \
		for f in $$(echo "$$targets" | grep '^Fuzz' || true); do \
			echo "== fuzzing $$f in $$pkg"; \
			$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime 10s -fuzzminimizetime 1s $$pkg; \
			n=$$((n + 1)); \
		done; \
	done; \
	if [ $$n -eq 0 ]; then echo "== no Fuzz target found"; exit 1; fi; \
	echo "== fuzzed $$n targets"

bench:
	$(GO) test -bench . -benchmem -run '^$$' . ./internal/sim/

bench-smoke:
	$(GO) test -bench . -benchtime 1x -benchmem -run '^$$' . ./internal/sim/ ./internal/cbir/ ./internal/trace/ ./internal/metrics/ \
		./internal/cluster/ ./internal/kernels/ ./internal/core/ ./internal/flight/ ./cmd/reachsim/
