# Developer entry points. `make check` is the CI gate: static analysis, the
# full test suite under the race detector (the guarded sweep pool and the
# shared step budget are concurrent code paths), and a one-iteration bench
# smoke proving the BENCH_PR3.json pipeline still produces a report.

GO ?= go
BENCH_OUT ?= bench.out
BENCH_JSON ?= BENCH_PR3.json

.PHONY: build test check race vet lint-api bench bench-e2e-test bench-smoke bench-pr5 bench-pr8 bench-pr9 bench-pr10 bench-regress bench-regress-pr8 bench-regress-pr9 bench-regress-pr10 nfr figures

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

check: vet lint-api race bench-smoke

# bench runs the full suite at default benchtime and renders the
# machine-readable report (per-benchmark ns/op, allocs/op and headline bound
# metrics, plus the scan-vs-indexed kernel speedup table).
bench:
	$(GO) test . -run '^$$' -bench . -benchmem > $(BENCH_OUT)
	$(GO) run ./cmd/benchjson -in $(BENCH_OUT) -out $(BENCH_JSON)
	@echo "wrote $(BENCH_JSON)"

# bench-e2e-test runs the end-to-end benchmark's own test suite. bench/ is a
# separate Go module, so `go test ./...` at the root never reaches it; its
# tests include the machine-independent work-counter golden
# (bench/testdata/counters.golden) and a short run of every workload.
bench-e2e-test:
	cd bench && $(GO) test ./...

# bench-smoke is the CI variant: one iteration of the kernel-comparison
# benchmarks, failing if the JSON report cannot be produced. Numbers from a
# single iteration are not meaningful; only the pipeline is under test.
bench-smoke:
	$(GO) test . -run '^$$' -bench 'Figure5Sweep|IndexedKernel' -benchtime 1x -benchmem > $(BENCH_OUT)
	$(GO) run ./cmd/benchjson -in $(BENCH_OUT) -out $(BENCH_JSON)

# bench-pr5 captures the empirical campaign layer: the sharded acceptance
# engine at several worker counts and the pooled-vs-unpooled simulator trial.
# The report's speedup table pairs workers=1 with workers=8 (wall-clock, so
# it tracks the machine's core count) and mode=unpooled with mode=pooled
# (allocs/op lands in alloc_reductions).
bench-pr5:
	$(GO) test . -run '^$$' -bench 'AcceptanceCampaign|SimTrial' -benchmem > bench_pr5.out
	$(GO) run ./cmd/benchjson -in bench_pr5.out -out BENCH_PR5.json
	@echo "wrote BENCH_PR5.json"

# bench-pr8 captures the result-cache layer: the memoized Figure 5 kernel
# sweep (cache=cold populates a fresh cache, cache=warm answers the whole
# sweep by lookup — the repeated-sweep speedup) and the incremental task-set
# re-analysis after a single-task edit (mode=full vs mode=incremental; the
# recomputed_frac metric records the fraction of terms that had to recompute,
# <0.5 by design). The report is gated by tools/benchregress like the others.
bench-pr8:
	$(GO) test . -run '^$$' -bench 'MemoSweep|AnalyzeSetEdit' -benchmem > bench_pr8.out
	$(GO) run ./cmd/benchjson -in bench_pr8.out -out BENCH_PR8.json
	@echo "wrote BENCH_PR8.json"

# bench-regress-pr8 is bench-regress for the result-cache layer: rerun the
# memoized-sweep and incremental-AnalyzeSet benchmarks and compare against
# the checked-in BENCH_PR8.json baseline (machine-speed normalised).
bench-regress-pr8:
	$(GO) test . -run '^$$' -bench 'MemoSweep|AnalyzeSetEdit' -benchtime 300ms -benchmem > bench_pr8_current.out
	$(GO) run ./cmd/benchjson -in bench_pr8_current.out -out bench_pr8_current.json
	$(GO) run ./tools/benchregress -baseline BENCH_PR8.json -current bench_pr8_current.json -tolerance 0.30

# bench-pr9 captures the fixpoint-solver layer: the delay-aware RTA over
# warm-seeded task sets under the cutting-plane solver, at several
# delay-curve sizes. The rta-iters/op metric records the engine-evaluation
# count per analysis pass.
bench-pr9:
	$(GO) test . -run '^$$' -bench 'RTASolver' -benchmem > bench_pr9.out
	$(GO) run ./cmd/benchjson -in bench_pr9.out -out BENCH_PR9.json
	@echo "wrote BENCH_PR9.json"

# bench-regress-pr9 is bench-regress for the solver layer: rerun the
# solver benchmarks and compare against the checked-in BENCH_PR9.json
# baseline (machine-speed normalised). Its solver=monotone rows have no
# current twin and are skipped.
bench-regress-pr9:
	$(GO) test . -run '^$$' -bench 'RTASolver' -benchtime 300ms -benchmem > bench_pr9_current.out
	$(GO) run ./cmd/benchjson -in bench_pr9_current.out -out bench_pr9_current.json
	$(GO) run ./tools/benchregress -baseline BENCH_PR9.json -current bench_pr9_current.json -tolerance 0.30

# bench-pr10 captures the exact schedule-graph layer: the worst-case-delay
# and response-time explorations with and without merging + dominance
# pruning (the mode=naive vs mode=pruned pairs report both the ns/op
# speedup and the states/op reduction the PR 10 acceptance bar — ≥10×
# fewer explored states — is read from) and the content-addressed
# memoization pair.
bench-pr10:
	$(GO) test . -run '^$$' -bench 'Exact(Delay|SAG|Memo)' -benchmem > bench_pr10.out
	$(GO) run ./cmd/benchjson -in bench_pr10.out -out BENCH_PR10.json
	@echo "wrote BENCH_PR10.json"

# bench-regress-pr10 is bench-regress for the exact-exploration layer:
# rerun the schedule-graph benchmarks and compare against the checked-in
# BENCH_PR10.json baseline (machine-speed normalised). Its
# BenchmarkExactFrontier rows have no current twin and are skipped.
bench-regress-pr10:
	$(GO) test . -run '^$$' -bench 'Exact(Delay|SAG|Memo)' -benchtime 300ms -benchmem > bench_pr10_current.out
	$(GO) run ./cmd/benchjson -in bench_pr10_current.out -out bench_pr10_current.json
	$(GO) run ./tools/benchregress -baseline BENCH_PR10.json -current bench_pr10_current.json -tolerance 0.30

# bench-regress is the CI tripwire: rerun the analysis-kernel benchmarks,
# render a fresh report to bench_current.json (NOT the checked-in baseline
# file, which bench-smoke overwrites) and compare, machine-speed normalised,
# failing on any >30% relative ns/op regression. Missing benchmarks or
# metrics are skipped, never fatal. The benchtime is a duration, not an
# iteration count, so Go scales iterations per benchmark — the sub-µs
# kernels get the millions of iterations they need for a stable ns/op.
bench-regress:
	$(GO) test . -run '^$$' -bench 'Figure5Sweep/kernel=|IndexedKernel' -benchtime 300ms -benchmem > bench_current.out
	$(GO) run ./cmd/benchjson -in bench_current.out -out bench_current.json
	$(GO) run ./tools/benchregress -baseline $(BENCH_JSON) -current bench_current.json -tolerance 0.30

# nfr enforces the absolute wall-clock ceilings of docs/nfr.md: every
# user-facing scenario in the table must finish inside its per-row budget.
# Unlike the bench-regress tripwires (relative, machine-normalised), these
# fail outright when a command stops fitting its budget. The build step
# warms the cache so `go run` measures the scenario, not compilation.
nfr:
	$(GO) build ./...
	$(GO) run ./tools/nfrcheck

figures:
	$(GO) run ./cmd/figures -fig all
