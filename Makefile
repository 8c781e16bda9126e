# Developer entry points for the WiDir reproduction. `make check` is
# the pre-commit gate: build + vet + determinism lint + protocol-model
# conformance + exhaustive model checking + full test suite + race on
# the concurrency-bearing packages.

GO ?= go

.PHONY: build test race vet lint model mcheck fuzz-smoke bench-json bench-gate check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The experiment runner fans simulations across goroutines and writes
# the persistent result cache from them, the machine package owns the
# results it publishes through it, the mesh, wireless and fault
# packages carry the shared state those parallel runs tick, and
# widirsim fans its runs through the runner with per-run stderr
# buffers; these are the packages where a data race could hide.
race:
	$(GO) test -race ./internal/exp/ ./internal/machine/ ./internal/mesh/ ./internal/wireless/ ./internal/fault/ ./cmd/widirsim/

vet:
	$(GO) vet ./...

# Static determinism audit (DESIGN.md §10): mapiter, walltime,
# globalrand, floatorder, gonosync, switchcases, protopanic and
# globalmut over the whole module.
lint:
	$(GO) run ./cmd/widir-lint ./...

# Protocol-model conformance (DESIGN.md §13): extract the dir and l1
# FSMs from internal/coherence and diff against the checked-in spec.
model:
	$(GO) run ./cmd/widir-model -check

# Exhaustive protocol model checking (DESIGN.md §15): explore every
# reachable state of the default model (3 L1s, ~1M canonical states,
# about a minute) and fail on any swmr / integrity / deadlock /
# liveness violation or spec-relation divergence. On failure the
# counterexample trace artifacts land in mcheck-cex.*.
mcheck:
	$(GO) run ./cmd/widir-mcheck -check \
	    -trace mcheck-cex.jsonl -perfetto mcheck-cex.perfetto.json

# Fuzz smoke (DESIGN.md §14): ten seconds of FuzzWheel, which drives
# the timing wheel under the event queue and the mesh with
# Push/PopDue/Next sequences and checks it against a sorted reference
# list, then five seconds each of the -fault-links parser (FuzzParseLinks)
# and the .widirspec parser (FuzzParseSpec). The seed corpora under each
# package's testdata/fuzz run in `make test` already.
fuzz-smoke:
	$(GO) test ./internal/engine -run '^$$' -fuzz '^FuzzWheel$$' -fuzztime 10s
	$(GO) test ./internal/fault -run '^$$' -fuzz '^FuzzParseLinks$$' -fuzztime 5s
	$(GO) test ./internal/protomodel -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 5s

# Measured perf record (DESIGN.md §14, EXPERIMENTS.md): run the
# simulator-performance benchmarks at a fixed -benchtime/-count and
# parse the output into BENCH_<date>.json via cmd/widir-bench. The
# date is injected here because the tool itself never reads the clock
# (walltime determinism lint).
PERF_BENCH = BenchmarkMachineCycle$$|BenchmarkMachineCycleTracingOff|BenchmarkSimFastForward
BENCH_DATE = $(shell date +%F)
bench-json:
	$(GO) test ./internal/machine -run '^$$' -bench '$(PERF_BENCH)' \
	    -benchtime 1s -count 3 -benchmem \
	    | $(GO) run ./cmd/widir-bench -date $(BENCH_DATE) -out BENCH_$(BENCH_DATE).json
	@echo wrote BENCH_$(BENCH_DATE).json

# Regression gate: rerun the measured benchmarks and compare against
# the checked-in baseline record. Fails on >15% ns/op regression or
# any allocs/op increase. CI runs this on every push.
BENCH_BASELINE = BENCH_2026-08-08.json
bench-gate:
	$(GO) test ./internal/machine -run '^$$' -bench '$(PERF_BENCH)' \
	    -benchtime 1s -count 3 -benchmem \
	    | $(GO) run ./cmd/widir-bench -date $(BENCH_DATE) -out bench-current.json \
	          -compare $(BENCH_BASELINE)

check: build vet lint model mcheck test race
