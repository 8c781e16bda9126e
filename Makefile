# Developer entry points for the WiDir reproduction. `make check` is
# the pre-commit gate: build + vet (and gofmt) + determinism lint + protocol
# conformance and exhaustive model checking + full test suite (which
# holds the allocation budgets, DESIGN.md §14) + race on the
# concurrency-bearing packages. Simulator speed is measured by
# perfbench (BENCHMARK.json); CI gates it with .github/perf_gate.py.

GO ?= go

.PHONY: build test race vet lint mcheck fuzz-smoke check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The experiment runner fans simulations across goroutines and writes
# the persistent result cache from them, the machine package owns the
# results it publishes through it, the mesh, wireless and fault
# packages carry the shared state those parallel runs tick, and
# widirsim fans its runs through the runner with per-run stderr
# buffers; these are the packages where a data race could hide. The
# model checker keeps its scratch in each Checker, so Checkers in one
# process share nothing: TestExploreConcurrent explores two at once
# and runs here. The rest of the mcheck suite stays out of -race for
# its run time.
race:
	$(GO) test -race ./internal/exp/ ./internal/machine/ ./internal/mesh/ ./internal/wireless/ ./internal/fault/ ./cmd/widirsim/
	$(GO) test -race -run '^TestExploreConcurrent$$' ./internal/mcheck/

# gofmt -l lists every file whose formatting differs; any output fails.
vet:
	$(GO) vet ./...
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then echo "gofmt needed:"; echo "$$files"; exit 1; fi

# Static determinism audit (DESIGN.md §10): mapiter, walltime,
# globalrand, floatorder, gonosync, switchcases, protopanic and
# globalmut over the whole module.
lint:
	$(GO) run ./cmd/widir-lint ./...

# Protocol checks against the checked-in spec. Conformance (DESIGN.md
# §13): extract the dir and l1 FSMs from internal/coherence and diff
# them against the spec. Exhaustive model checking (DESIGN.md §15):
# explore every reachable state of the default model (3 L1s, ~1M
# canonical states, under half a minute). Fails on any conformance finding,
# swmr / integrity / deadlock / liveness violation or spec-relation
# divergence. On a violation the counterexample trace artifacts land
# in mcheck-cex.*.
mcheck:
	$(GO) run ./cmd/widir-mcheck -check \
	    -trace mcheck-cex.jsonl -perfetto mcheck-cex.perfetto.json

# Fuzz smoke (DESIGN.md §14): ten seconds of FuzzWheel, which drives
# the timing wheel under the event queue and the mesh with
# Push/PopDue/Next sequences and checks it against a sorted reference
# list, then five seconds each of the -fault-links parser (FuzzParseLinks),
# the .widirspec parser (FuzzParseSpec), the result cache's entry
# decoding (FuzzCacheGet), the core's compute drain against a core
# that ticks through every cycle (FuzzCoreDrain), the L1 array against
# the flat array it replaced (FuzzCacheArray), widirsim's -config
# loader through NewSystem (FuzzLoadConfig) and widirsim's -class
# event-kind parser (FuzzParseKinds). The seed corpora under each
# package's testdata/fuzz (or added in code) run in `make test` already. -fuzzminimizetime caps the
# minimization of each new input at 100 runs: Go's 60 s default spends
# a short window minimizing instead of fuzzing.
fuzz-smoke:
	$(GO) test ./internal/engine -run '^$$' -fuzz '^FuzzWheel$$' -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/fault -run '^$$' -fuzz '^FuzzParseLinks$$' -fuzztime 5s -fuzzminimizetime 100x
	$(GO) test ./internal/protomodel -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime 5s -fuzzminimizetime 100x
	$(GO) test ./internal/exp -run '^$$' -fuzz '^FuzzCacheGet$$' -fuzztime 5s -fuzzminimizetime 100x
	$(GO) test ./internal/cpu -run '^$$' -fuzz '^FuzzCoreDrain$$' -fuzztime 5s -fuzzminimizetime 100x
	$(GO) test ./internal/cache -run '^$$' -fuzz '^FuzzCacheArray$$' -fuzztime 5s -fuzzminimizetime 100x
	$(GO) test ./cmd/widirsim -run '^$$' -fuzz '^FuzzLoadConfig$$' -fuzztime 5s -fuzzminimizetime 100x
	$(GO) test ./internal/obs -run '^$$' -fuzz '^FuzzParseKinds$$' -fuzztime 5s -fuzzminimizetime 100x

check: build vet lint mcheck test race
