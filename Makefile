GO ?= go

.PHONY: build test race vet fmt-check staticcheck govulncheck lint verify bench bench-full bench-smoke bench-serving kernel-smoke chaos serving-chaos retrain-chaos fuzz-smoke cover

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt-check fails (and lists the offenders) if any file needs gofmt.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# staticcheck / govulncheck run when the binaries are on PATH and are
# skipped (with a note) when they are not, so `make lint` works on a bare
# toolchain; CI installs both, so the checks are always enforced pre-merge.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs it)"; \
	fi

lint: vet fmt-check staticcheck govulncheck

race:
	$(GO) test -race ./...

# kernel-smoke runs the GEMM/pool property and concurrency tests under the
# race detector — the fast gate for kernel-layer changes (DESIGN.md §9) —
# and vets an arm64 build, so the portable fallback of the amd64 assembly
# kernel keeps compiling.
kernel-smoke:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	$(GO) test -run TestKernel -race ./internal/tensor/ ./internal/model/

# chaos runs the fault-injection suite — panic isolation, degraded
# fallback, load shedding, deadline, crash-safe checkpoints — under the
# race detector, twice, so recovery paths that leak state across runs are
# caught (DESIGN.md §10).
chaos:
	$(GO) test -run TestChaos -race -count=2 ./...

# serving-chaos is the distributed-tier slice of the chaos suite on its own:
# replica kill, connection reset, overload shedding, total shard loss, stall
# hedging, reload-under-load, plus the online-adaptation pair — background
# retrain under estimate load and mutation batches racing reloads — all
# against real HTTP replicas (DESIGN.md §15, §16). `make chaos` already
# includes these; this target is the fast loop while working on
# internal/serving.
serving-chaos:
	$(GO) test -run 'TestChaos(Serving|Retrain|Mutate)' -race -count=2 ./internal/serving/

# retrain-chaos is the online-adaptation slice on its own: the adaptation
# chaos pair (background retrain under estimate load; mutation batches
# racing model reloads) plus the end-to-end proof that a mutation-drifted
# tier detects the drift and retrains back to within 1.1× of a
# from-scratch train (DESIGN.md §16).
retrain-chaos:
	$(GO) test -run 'TestChaos(Retrain|Mutate)' -race -count=2 ./internal/serving/
	$(GO) test -run TestAdaptationEndToEnd -race -count=1 ./cardest/

# fuzz-smoke gives each native fuzz target a short budget — enough to
# replay the corpus and shake loose shallow parser/decoder crashes on every
# merge; long sessions stay manual (go test -fuzz=... -fuzztime=10m).
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzLoad -fuzztime=$(FUZZTIME) ./cardest/
	$(GO) test -run='^$$' -fuzz=FuzzPrecisionServe -fuzztime=$(FUZZTIME) ./cardest/
	$(GO) test -run='^$$' -fuzz=FuzzParseWorkers -fuzztime=$(FUZZTIME) ./internal/tensor/
	$(GO) test -run='^$$' -fuzz=FuzzMatMulTransB -fuzztime=$(FUZZTIME) ./internal/tensor/
	$(GO) test -run='^$$' -fuzz=FuzzQuantize8 -fuzztime=$(FUZZTIME) ./internal/nn/
	$(GO) test -run='^$$' -fuzz=FuzzParsePredicate -fuzztime=$(FUZZTIME) ./cardest/plan/
	$(GO) test -run='^$$' -fuzz=FuzzMutationLog -fuzztime=$(FUZZTIME) ./internal/dataset/
	$(GO) test -run='^$$' -fuzz=FuzzDriftThreshold -fuzztime=$(FUZZTIME) ./internal/probe/
	$(GO) test -run='^$$' -fuzz=FuzzSegmentCombine -fuzztime=$(FUZZTIME) ./internal/dist/
	$(GO) test -run='^$$' -fuzz=FuzzPackBits -fuzztime=$(FUZZTIME) ./internal/dist/
	$(GO) test -run='^$$' -fuzz=FuzzTokenHamming -fuzztime=$(FUZZTIME) ./internal/dist/

# cover prints per-package coverage and fails if total statement coverage
# drops below the recorded baseline (set just under the measured total;
# raise it when coverage improves, never lower it to make a PR pass).
# cmd/ binaries are excluded from the gate: their flag-parsing main()
# wrappers would dilute the number without measuring anything the library
# tests don't already cover (the testable entry points under cmd/ live in
# functions the package tests drive directly).
COVER_BASELINE ?= 80.0
cover:
	$(GO) test -count=1 -coverprofile=cover.out $$($(GO) list ./... | grep -v /cmd/)
	@$(GO) tool cover -func=cover.out | tail -1
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{gsub(/%/,"",$$NF); print $$NF}'); \
	ok=$$(awk -v t="$$total" -v b="$(COVER_BASELINE)" 'BEGIN{print (t+0 >= b+0) ? 1 : 0}'); \
	if [ "$$ok" != "1" ]; then \
		echo "coverage $$total% is below baseline $(COVER_BASELINE)%"; exit 1; \
	fi

# verify is the pre-merge gate: static checks, the kernel smoke, the chaos
# suite, the fuzz corpus smoke, plus the full suite under the race detector
# (the serving engine is concurrent; see DESIGN.md §7). Every target uses
# ./... wildcards, so cmd/simserve and cmd/simload ride lint, chaos (the
# TestChaosServing suite), and race automatically.
verify: lint kernel-smoke chaos fuzz-smoke race

# bench regenerates the tracked kernel + end-to-end baseline (short
# benchtime; commits as BENCH_kernels.json). -workers 4 exercises the
# pooled GEMM rows; on a host with fewer usable cores the run records a
# warning row and the pooled rows measure dispatch overhead honestly.
bench:
	$(GO) run ./cmd/simbench -kernels -workers 4 -bench-out BENCH_kernels.json

# bench-smoke is the CI variant: a very short benchtime (numbers are
# throwaway — the artifact is gitignored), but the scaling guard still
# fails the run if a pooled GEMM row regresses below its tiled baseline.
bench-smoke:
	$(GO) run ./cmd/simbench -kernels -workers 4 -benchtime 50ms -scaling-guard -bench-out bench_smoke.json

# bench-serving drives the replicated serving tier with an open-loop load
# (simload -spawn: hermetic, no checkpoint needed) and kills one replica
# mid-run; the run must finish with zero client-visible errors and writes
# p50/p99/p99.9 plus shed/degraded/retried/hedged counts to
# BENCH_serving.json (tracked, like BENCH_kernels.json; the numbers are
# host-dependent, so compare runs from one host only).
bench-serving:
	$(GO) run ./cmd/simload -spawn 3 -rate 300 -duration 5s -kill-after 2s -out BENCH_serving.json

# bench-full runs every top-level experiment benchmark (minutes).
bench-full:
	$(GO) test -bench=. -benchmem
