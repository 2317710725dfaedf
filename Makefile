# Developer entry points. `make check` is the CI gate: static analysis, the
# full test suite under the race detector (the guarded sweep pool and the
# shared step budget are concurrent code paths), and the microbenchmark gate
# against testdata/bench.golden.

GO ?= go
BENCH_OUT ?= bench.out
# BENCH is the gated row set: the analysis kernels, the result cache, the
# fixpoint solver, the fixed-priority Q assignment, the exact explorer, the
# serial campaign layer (unguarded, and as service jobs under a guard and a
# live scope), the request decoder and the response writer. The workers>1
# campaign rows stay out: their ns/op depends on the core count.
BENCH = Figure5Sweep/kernel=|IndexedKernel|MemoSweep|AnalyzeSetEdit|RTASolver|QAssignment/FP|Exact(Delay|SAG|Memo)|AcceptanceCampaign/workers=1$$|AcceptanceJob|AtlasJob|SimTrial|DecodeBody|EncodeResponse

.PHONY: build test check race vet lint-api bench bench-gate bench-e2e-test nfr figures

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint-api rejects new exported X/XCtx or X/XOpts pairs (the ladder
# anti-pattern the consolidated core.Analyze / eval.QSweep APIs replaced).
# Pre-existing pairs are allowlisted in tools/lintapi/main.go.
lint-api:
	$(GO) run ./tools/lintapi .

race:
	$(GO) test -race ./...

check: vet lint-api race bench-gate

# bench writes raw `go test -bench` text for the gated rows to $(BENCH_OUT):
# five passes over the whole set rather than -count 5, so a row's samples
# sit ~15 s apart and a burst of load on a shared host spoils one of them,
# not the median the gate takes. The 300 ms benchtime is a duration, so Go
# scales iterations per benchmark and the sub-µs kernels get the millions
# of iterations they need.
bench:
	rm -f $(BENCH_OUT)
	for pass in 1 2 3 4 5; do \
		$(GO) test . -run '^$$' -bench '$(BENCH)' -benchtime 300ms -benchmem >> $(BENCH_OUT) || exit 1; \
	done
	@echo "wrote $(BENCH_OUT)"

# bench-gate judges that run against testdata/bench.golden (tools/benchregress):
# work and result counters exactly, allocs/op within +10%, ns/op within
# 1.30x after dividing by the median ratio of all rows, and a row missing on
# either side fails. `go run ./tools/benchregress -update -in <file>`
# rewrites the golden from the median of every sample in <file>; record it
# from several `make bench` outputs concatenated, so the reference is
# steadier than the run it judges.
bench-gate: bench
	$(GO) run ./tools/benchregress -golden testdata/bench.golden -in $(BENCH_OUT)

# bench-e2e-test runs the end-to-end benchmark's own test suite. bench/ is a
# separate Go module, so `go test ./...` at the root never reaches it; its
# tests include the machine-independent work-counter golden
# (bench/testdata/counters.golden) and a short run of every workload.
bench-e2e-test:
	cd bench && $(GO) test ./...

# nfr enforces the absolute wall-clock ceilings of docs/nfr.md: every
# user-facing scenario in the table must finish inside its per-row budget,
# and the scenarios with counter rows must report exactly those counters.
# Unlike bench-gate (relative to a golden, machine-normalised), these
# fail outright when a command stops fitting its budget. The build step
# warms the cache so `go run` measures the scenario, not compilation.
nfr:
	$(GO) build ./...
	$(GO) run ./tools/nfrcheck

figures:
	$(GO) run ./cmd/figures -fig all
