GO ?= go
LINT := bin/greedlint
FUZZTIME ?= 30s

.PHONY: all build lint lint-changed lint-json lint-golden test race experiments-check bench bench-micro bench-events bench-classes service-bench escapes escapes-update fuzz clean

all: build lint test

build:
	$(GO) build ./...

$(LINT): cmd/greedlint/*.go internal/lint/*.go
	$(GO) build -o $(LINT) ./cmd/greedlint

# The fail-fast pre-gate first (only the packages whose Go files changed
# vs HEAD — seconds, not the whole module), then go vet's standard
# checks, then the full in-tree greedlint suite — floateq, rngsource,
# panicfree, errdrop, the dataflow-aware feasguard, detorder, dimcheck,
# parsafe, the interprocedural allocfree, ctxflow, wsalias, and the
# concurrency-contract guardedby, chanown, fanout — through the vettool
# protocol (covers test files, flows call-graph facts through vetx),
# then once standalone for the sorted listing.
lint: $(LINT) lint-changed
	$(GO) vet ./...
	$(GO) vet -vettool=$(abspath $(LINT)) ./...
	$(LINT) ./...

# Standalone run scoped to the git-changed packages: the quick local
# loop (and the first thing `make lint` tries, so a broken edit fails in
# seconds).  A lower bound only — dependents of a changed package are
# not re-checked until the full run.
lint-changed: $(LINT)
	$(LINT) -changed

# Machine-readable findings stream (CI archives it as an artifact).
# Exit 0 writes [], so the artifact always exists and always parses.
lint-json: $(LINT)
	$(LINT) -json ./... > LINT.json || true

# Regenerate cmd/greedlint/testdata/golden.{txt,json} after changing
# analyzer messages or the golden fixture module.
lint-golden:
	$(GO) test ./cmd/greedlint -run TestGolden -update

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 5m ./...

# EXPERIMENTS.md byte-stability: the full-budget suite on one worker
# must reproduce the fenced block under "## Full suite output" byte for
# byte (diff -u shows any drift; exit 1).  The block is amd64
# arithmetic: other architectures may fuse multiply-adds.
experiments-check:
	@want=$$(mktemp) && trap 'rm -f "$$want"' EXIT && \
	awk '/^## Full suite output/ { s = 1; next } s && /^```/ { if (f) exit; f = 1; next } f' EXPERIMENTS.md > "$$want" && \
	test -s "$$want" && \
	$(GO) run ./cmd/greedbench -workers 1 | diff -u "$$want" - && \
	echo "experiments-check: full suite output matches EXPERIMENTS.md"

# Suite benchmarks plus the perf-trajectory artifact: one sequential and
# one pooled pass over the fast suite, archived as BENCH_parallel.json
# (sequential vs parallel wall-clock, worker count, host cores).
bench:
	$(GO) test -run='^$$' -bench='BenchmarkSuite(Sequential|Parallel)$$' -benchtime=1x .
	$(GO) run ./cmd/greedbench -fast -benchjson BENCH_parallel.json

# Hot-path micro-benchmarks (internal/hotpath): ns/op, allocs/op and
# bytes/op for the hottest per-user paths and the class-solver headline
# scales, archived as BENCH_hotpath.json.  Exits 1 if a gated path
# exceeds its allocation budget (zero for the workspace fast paths).
bench-micro:
	$(GO) run ./cmd/greedbench -hotpath BENCH_hotpath.json

# Events/sec headline gate: the calendar-queue engine vs the frozen heap
# baseline over identical event sequences at N = 10², 10⁴, 10⁵ sources,
# plus the multicore replication-throughput pass.  Archived as
# BENCH_events.json; exits 1 when a calendar/heap ratio drops under its
# scale's floor, the warm event loop allocates, or (multi-core hosts
# only) replication throughput stops scaling.
bench-events:
	$(GO) run ./cmd/greedbench -events BENCH_events.json

# Class-solver gate: the class-aggregated Nash solver at K classes over
# N users up to 10^6, archived as BENCH_classes.json.  Exits 1 when a
# scale's ns/op exceeds its ceiling (the solve went O(N)), the warm
# steady state allocates, the class solve measures slower than the exact
# solver it aggregates, or the class arithmetic drifts off the exact
# per-user answers (Float64bits at K = N).
bench-classes:
	$(GO) run ./cmd/greedbench -classes BENCH_classes.json

# greedd chaos load harness: a thousand hill-climbing selfish clients
# plus the four service-level chaos injectors against an in-process
# greedd, archived as BENCH_service.json (latency percentiles, shed
# accounting by typed reason, cache hit rate, drain verdict).  Exits 1
# on queue growth past its bound, rejections without a typed reason,
# handler panics, or goroutines leaked across the drain.  The shared
# overwrite guard refuses to replace a multi-core artifact with a
# single-core run; override deliberately with FORCE=-force.
service-bench:
	$(GO) run ./cmd/greedbench -service BENCH_service.json -seed 7 $(FORCE)

# Compiler escape-analysis gate: diff `go build -gcflags=-m` output over
# the //lint:hotpath functions against BENCH_escapes.json.  Exits 1 on
# a new heap escape (regression) or a stale baseline entry (fixed
# escape still listed); a clean run rewrites the file byte-identically.
escapes:
	$(GO) run ./cmd/greedbench -escapes BENCH_escapes.json

# Accept the current escape set as the new baseline (after auditing the
# gate's ESCAPE(new)/ESCAPE(stale) listing).
escapes-update:
	rm -f BENCH_escapes.json
	$(GO) run ./cmd/greedbench -escapes BENCH_escapes.json

# Short smoke over every fuzz target in the module, FUZZTIME each; CI runs
# this on every push (its only fuzz list), longer local runs via
# FUZZTIME=5m make fuzz.
fuzz:
	$(GO) test ./internal/alloc -run='^$$' -fuzz=FuzzFairShareInvariants -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/alloc -run='^$$' -fuzz=FuzzTablePriorityGMatchesFairShareAtCV1 -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/chaos -run='^$$' -fuzz=FuzzAllocationPassThrough -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core -run='^$$' -fuzz=FuzzAscendingSequence -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/des/calq -run='^$$' -fuzz=FuzzQueueModes -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/game -run='^$$' -fuzz=FuzzAggregateExpand -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/game -run='^$$' -fuzz=FuzzBlockPos -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/service -run='^$$' -fuzz=FuzzDecodeUpdate -fuzztime=$(FUZZTIME)

clean:
	rm -rf bin
