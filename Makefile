GO ?= go
LINT := bin/greedlint
FUZZTIME ?= 30s

.PHONY: all build lint lint-golden test race experiments-check bench escapes escapes-update fuzz clean

all: build lint test

build:
	$(GO) build ./...

$(LINT): cmd/greedlint/*.go internal/lint/*.go
	$(GO) build -o $(LINT) ./cmd/greedlint

# go vet's standard checks, then the full in-tree greedlint suite over
# every package, test files included: floateq, rngsource, panicfree,
# errdrop, the dataflow-aware feasguard, detorder, dimcheck, the
# interprocedural allocfree, ctxflow, and the concurrency-contract
# guardedby, fanout.  Its one sorted listing must be empty.
lint: $(LINT)
	$(GO) vet ./...
	$(LINT) ./...

# Regenerate cmd/greedlint/testdata/golden.txt after changing analyzer
# messages or the golden fixture module.
lint-golden:
	$(GO) test ./cmd/greedlint -run TestGolden -update

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 5m ./...

# EXPERIMENTS.md byte-stability: the full-budget suite on one worker
# must reproduce the fenced block under "## Full suite output" byte for
# byte (diff -u shows any drift; exit 1).  The block is amd64
# arithmetic: other architectures may fuse multiply-adds.  The DES
# experiments still spread their simulations over GOMAXPROCS; CI runs
# the target again under GOMAXPROCS=1 to hold the inline path too.
experiments-check:
	@want=$$(mktemp) && trap 'rm -f "$$want"' EXIT && \
	awk '/^## Full suite output/ { s = 1; next } s && /^```/ { if (f) exit; f = 1; next } f' EXPERIMENTS.md > "$$want" && \
	test -s "$$want" && \
	$(GO) run ./cmd/greedbench -workers 1 | diff -u "$$want" - && \
	echo "experiments-check: full suite output matches EXPERIMENTS.md"

# Every measured layer through one entry point: greedbench -bench all
# writes BENCH_{hotpath,classes,events,service,parallel}.json in one
# schema (a host header plus case/metric/value/budget rows) and exits 1
# when any row misses its ceiling or floor:
#   hotpath   ns/op, allocs/op, bytes/op of the hottest per-user paths;
#   classes   the class-aggregated Nash solver at K classes over N users
#             up to 10^6, after the K = N bit-equality check;
#   events    fastest-round ns/event against an absolute ceiling: RunG
#             at N = 4, 10^2, 10^4, 10^5 sources, RunSched at E18's and
#             RunCtx at E14's population; allocs/event, replication scaling;
#   service   a thousand selfish clients plus four chaos injectors
#             against an in-process greedd, and its drain;
#   parallel  the fast suite on one worker and on GOMAXPROCS workers.
# A one-core run may not replace the multi-core artifact of events,
# service or parallel; override deliberately with FORCE=-force.
bench:
	$(GO) run ./cmd/greedbench -bench all $(FORCE)

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
	$(GO) test ./internal/cliutil -run='^$$' -fuzz=FuzzParseUtility -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core -run='^$$' -fuzz=FuzzAscendingSequence -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/game -run='^$$' -fuzz=FuzzAggregateExpand -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/game -run='^$$' -fuzz=FuzzBlockPos -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/service -run='^$$' -fuzz=FuzzDecodeUpdate -fuzztime=$(FUZZTIME)

clean:
	rm -rf bin
