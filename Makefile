# Development workflow for the ReACH reproduction.
#
#   make check       — everything CI runs: formatting, build, vet (the
#                      root module and the bench/ module), race tests
#                      (reachsim's end-to-end TestCLI matrix included), the
#                      bench/ module's tests, 10 s of fuzzing each Fuzz
#                      target the root module's tests define, and
#                      bench-smoke
#   make fuzz        — every Fuzz target of every package, 10 s each
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

# Coverage-guided fuzzing: go test -list finds the Fuzz targets of every
# package of the root module, and each one runs for 10 s (a target's doc
# comment says what it checks). The target fails when a package does not
# build, when it finds no Fuzz target, or when any target fails. Plain go
# test runs only the seeds.
fuzz:
	@set -e; n=0; \
	for pkg in $$($(GO) list ./...); do \
		targets=$$($(GO) test -list '^Fuzz' $$pkg); \
		for f in $$(echo "$$targets" | grep '^Fuzz' || true); do \
			echo "== fuzzing $$f in $$pkg"; \
			$(GO) test -run '^$$' -fuzz "^$$f\$$" -fuzztime 10s $$pkg; \
			n=$$((n + 1)); \
		done; \
	done; \
	if [ $$n -eq 0 ]; then echo "== no Fuzz target found"; exit 1; fi; \
	echo "== fuzzed $$n targets"

bench:
	$(GO) test -bench . -benchmem -run '^$$' . ./internal/sim/

bench-smoke:
	$(GO) test -bench . -benchtime 1x -benchmem -run '^$$' . ./internal/sim/ ./internal/cbir/ ./internal/trace/ ./internal/metrics/ \
		./internal/cluster/ ./internal/kernels/ ./internal/core/
