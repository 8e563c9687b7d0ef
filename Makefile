GO ?= go
FUZZTIME ?= 10s
# Minimum total statement coverage for `make cover`. Raise it when new
# suites land; never lower it to paper over a regression.
COVER_MIN ?= 73.0

# Pinned external linters (versions live in tools/versions.mk).
# LINT_EXTERNAL: auto = run them when they can be fetched/built, skip
# with a notice otherwise (offline dev); require = fail when they cannot
# run (CI); off = never run them.
include tools/versions.mk
LINT_EXTERNAL ?= auto
TOOLSBIN := $(CURDIR)/tools/bin

.PHONY: build test bench bench-smoke fmt fmt-check vet race fuzz serve-smoke restart-smoke load-smoke cover loc profile lint motiflint tools-test servebench-vet lint-external

build:
	$(GO) build ./...

test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short fuzz runs of every fuzz target (go test drives one target per
# invocation). Override the budget with FUZZTIME=30s make fuzz.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDFDKernel$$' -fuzztime $(FUZZTIME) ./internal/dist
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime $(FUZZTIME) ./internal/trajio
	$(GO) test -run '^$$' -fuzz '^FuzzReadPLT$$' -fuzztime $(FUZZTIME) ./internal/trajio
	$(GO) test -run '^$$' -fuzz '^FuzzScanner$$' -fuzztime $(FUZZTIME) ./internal/trajio
	$(GO) test -run '^$$' -fuzz '^FuzzSpatialIndex$$' -fuzztime $(FUZZTIME) ./internal/spatial
	$(GO) test -run '^$$' -fuzz '^FuzzProjectedDecision$$' -fuzztime $(FUZZTIME) ./internal/dist

# Coverage profile over the -short suite (the corpus parity and streaming
# tests all run under -short), with the per-function summary's total line
# printed for CI logs and gated against COVER_MIN. The full profile lands
# in cover.out for `go tool cover -html=cover.out`.
cover:
	$(GO) test -short -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -n 1
	@$(GO) tool cover -func=cover.out | tail -n 1 | \
		awk -v min=$(COVER_MIN) '{ pct = $$NF + 0; if (pct < min) { \
			printf "coverage %.1f%% below the %.1f%% gate\n", pct, min; exit 1 } \
			else printf "coverage %.1f%% >= %.1f%% gate\n", pct, min }'
	@echo "note: the motiflint analyzer suites live in the tools module and run via 'make tools-test' (outside this profile and the COVER_MIN gate)"

# Go line counts per module (the root, tools and servebench modules are
# separate): non-test lines, and test lines (_test.go files plus analyzer
# fixtures under testdata/). CI prints them next to coverage so every
# change's net line count is visible.
loc:
	@printf '%-11s %9s %6s\n' module non-test test
	@for mod in . tools servebench; do \
		files=$$(cd $$mod && find . \( -path ./tools -o -path ./servebench \) -prune -o -name '*.go' -print); \
		src=$$(cd $$mod && echo "$$files" | grep -v -e '_test\.go$$' -e '/testdata/' | xargs -r cat | wc -l); \
		tst=$$(cd $$mod && echo "$$files" | grep -e '_test\.go$$' -e '/testdata/' | xargs -r cat | wc -l); \
		printf '%-11s %9d %6d\n' $$mod $$src $$tst; \
	done

# End-to-end serve-mode smoke: build the motifserve binary, start it on a
# free port, upload a generated trajectory, and assert the second
# identical /discover request rebuilds zero grids.
serve-smoke:
	$(GO) test -run '^TestServeSmokeBinary$$' -count=1 -v ./cmd/motifserve

# End-to-end restart drill: run motifserve with -artifact-dir and
# -snapshot-on-shutdown, upload + discover, SIGTERM, restart
# against the same directory, and assert the warm process answers the
# same discover from the disk tier — registry restored, zero grids
# rebuilt, diskReads > 0 on /stats.
restart-smoke:
	$(GO) test -run '^TestRestartSmokeBinary$$' -count=1 -v ./cmd/motifserve

# End-to-end load smoke: run motifserve with -max-trajectories 24 and
# -max-concurrent 2 under a seeded mix of uploads, discovers, kNN, joins,
# deletes and /stats and /metrics reads from six clients, and assert no
# 5xx, no transport error (a request over 10 s is one), at least one
# 200, a registry within its cap, LRU evictions, a parseable /metrics
# and no admission slot held once the traffic drains.
load-smoke:
	$(GO) test -run '^TestLoadSmokeBinary$$' -count=1 -v ./cmd/motifserve

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Profile the fixed deterministic -json workload: CPU and heap profiles
# land in /tmp for `go tool pprof /tmp/motifbench.{cpu,mem}.out`.
profile:
	$(GO) run ./cmd/motifbench -json /tmp/motifbench.json \
		-cpuprofile /tmp/motifbench.cpu.out -memprofile /tmp/motifbench.mem.out
	@echo "profiles: /tmp/motifbench.cpu.out /tmp/motifbench.mem.out (go tool pprof)"

# One iteration of every benchmark in every package — catches bit-rot in
# bench-only code paths (including the parallel workers=N variants)
# without paying for a statistically meaningful run. The -json emitter
# runs too, so the machine-readable path cannot rot between BENCH_*.json
# regenerations.
bench-smoke:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...
	$(GO) run ./cmd/motifbench -json /tmp/motifbench.json

fmt:
	gofmt -l -w .

fmt-check:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "gofmt needed on:"; echo "$$out"; exit 1; }

vet:
	$(GO) vet ./...

# Static analysis, in order: formatting diff, go vet, the motiflint
# invariant suite over the whole tree, the analyzer fixture tests, and
# the pinned external linters. CI runs this with LINT_EXTERNAL=require.
lint: fmt-check vet motiflint tools-test lint-external

# The repo's invariant multichecker (tools/internal/analysis): lockcheck,
# statsmerge, determinism, preparedgate, httperr. Exits non-zero on any
# finding; see DESIGN.md §5 for what each analyzer enforces and the
# //lint:ignore escape hatch.
motiflint:
	cd tools && $(GO) run ./cmd/motiflint -dir .. ./...

# The analysistest suites for the five analyzers (plain go test in the
# nested tools module; no third-party deps).
tools-test:
	cd tools && $(GO) test ./...

# Compile and vet the servebench module (it replaces trajmotif with this
# checkout), so a change to an internal API it builds on — serve.Backend,
# which servebench/tracehost wraps — fails here rather than only when
# the benchmark runs.
servebench-vet:
	cd servebench && $(GO) vet ./...

# staticcheck + govulncheck at the versions pinned in tools/versions.mk.
# `go install pkg@version` cleanly separates "tool unavailable" (offline:
# skip under auto, fail under require) from "tool reported findings"
# (always fail).
lint-external:
ifneq ($(LINT_EXTERNAL),off)
	@if GOBIN=$(TOOLSBIN) $(GO) install $(STATICCHECK_PKG)@$(STATICCHECK_VERSION) >/dev/null 2>&1; then \
		echo ">> staticcheck $(STATICCHECK_VERSION)"; $(TOOLSBIN)/staticcheck ./...; \
	elif [ "$(LINT_EXTERNAL)" = "require" ]; then \
		echo "lint-external: cannot build staticcheck $(STATICCHECK_VERSION)" >&2; exit 1; \
	else \
		echo "lint-external: staticcheck unavailable (offline?); skipping — set LINT_EXTERNAL=require to fail instead"; \
	fi
	@if GOBIN=$(TOOLSBIN) $(GO) install $(GOVULNCHECK_PKG)@$(GOVULNCHECK_VERSION) >/dev/null 2>&1; then \
		echo ">> govulncheck $(GOVULNCHECK_VERSION)"; $(TOOLSBIN)/govulncheck ./...; \
	elif [ "$(LINT_EXTERNAL)" = "require" ]; then \
		echo "lint-external: cannot build govulncheck $(GOVULNCHECK_VERSION)" >&2; exit 1; \
	else \
		echo "lint-external: govulncheck unavailable (offline?); skipping — set LINT_EXTERNAL=require to fail instead"; \
	fi
else
	@echo "lint-external: disabled (LINT_EXTERNAL=off)"
endif
