# carsgo — build, test, and reproduce the paper's evaluation.

GO ?= go

.PHONY: all build fmt vet lint check opt san fuzz test test-short race-short bench bench-diff prof loadbench experiments examples serve-smoke serve-test clean

all: build vet lint test

build:
	$(GO) build ./...

# Formatting gate: gofmt must have nothing to say about any tracked Go
# file. Lists the offenders and fails; fix them with gofmt -w.
fmt:
	@files=$$(git ls-files '*.go' | xargs -r gofmt -l); \
	if [ -n "$$files" ]; then \
		echo "gofmt -l lists unformatted files (fix with gofmt -w):"; echo "$$files"; exit 1; \
	fi

# Static analysis: Go's own vet, then carsvet (internal/vet) over the
# paper's 22 workloads in every ABI mode and the assembly examples.
# The racy demo must keep FAILING: its shared race and divergent
# barrier are the sync/race analyses' acceptance test.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/carsvet -workloads
	$(GO) run ./cmd/carsvet examples/vetdemo/clean.carsasm
	! $(GO) run ./cmd/carsvet -race examples/vetdemo/racy.carsasm
	$(GO) run ./cmd/carsvet internal/spec/testdata/workloads

# Repo-custom analyzers (internal/lint): the five legacy syntax
# checks over the simulator hot paths plus the carsguard suite —
# whole-module concurrency/resource-safety analysis of the serving
# layer (ctxflow, goleak, lockheld, atomicmix, metriclabels; DESIGN.md
# §13). The selftest holds every guard analyzer to its
# planted-violation fixture first: like the racy vet demo, the plants
# must keep FAILING, or the analyzers have lost their teeth.
lint:
	$(GO) run ./cmd/carslint -selftest
	$(GO) run ./cmd/carslint

# Pre-push gate: formatting, compile everything, both vet layers, the
# analyzer suite, the short test matrix, the optimizer soundness gate,
# and last the benchmark module's tests. perfbench is its own module,
# so ./... skips it; its smoke test checks every sweep result and
# every toolchain vet report against perfbench/oracle.json, so a
# refactor that moves one simulated cycle or one byte of vet JSON
# fails here, not only in the benchmark. CI runs exactly this first.
check: fmt build vet lint test-short opt
	$(GO) -C perfbench test ./...

# Certificate-carrying optimizer soundness gate (cmd/carsopt,
# internal/opt): every registry workload and every checked-in spec is
# optimized and must simulate bit-identically in every ABI mode, with
# a clean sanitizer and a non-degrading vet report; failing runs write
# their certificates to opt-failures/ (CI uploads them). The optweaken
# build then plants an unsound next-def-kills rewrite the same
# differential must catch — an oracle that cannot see a planted bug
# proves nothing. Takes a few minutes.
opt:
	$(GO) run ./cmd/carsopt examples/vetdemo/optme.carsasm
	$(GO) run ./cmd/carsopt -workloads -certs opt-failures
	for s in internal/spec/testdata/workloads/*.json; do \
		$(GO) run ./cmd/carsopt -spec $$s -certs opt-failures || exit 1; done
	$(GO) run -tags optweaken ./cmd/carsopt -selftest

# Static/dynamic differential harness: every workload in every ABI
# mode under the shadow sanitizer (internal/san); vet's bounds must
# dominate the observed dynamic behaviour, including the sync half —
# kernels vet proved barrier-safe/race-free must run dynamically
# silent, and the negative workloads (racy / barrier-divergent plus
# clean twins) must be flagged by both sides or neither. The perf
# differential then holds the static cost/occupancy model to dominance
# and exactness at every forced CARS level AND every spill-backend
# design point — the shared-spill base and the full RF-cache window
# ladder — with per-backend advisor regret bounded and shared-memory
# transaction counters held to sim/sanitizer parity. Takes a few
# minutes.
san:
	$(GO) run ./cmd/carsvet -diff
	$(GO) run ./cmd/carsvet -diff examples/vetdemo/clean.carsasm
	$(GO) run ./cmd/carsvet -perfdiff

# Generative differential fuzzing (cmd/carsfuzz): 200 seeded random
# workload specs through the full static/dynamic stack — any verdict,
# dominance, or occupancy-exactness disagreement fails, writing a
# minimized reproducer to fuzz-corpus/. The selftest then rebuilds the
# oracle with a planted analyzer weakening (-tags vetweaken) and
# asserts the same campaign catches it. Fixed seed: the run is
# bit-reproducible.
fuzz:
	$(GO) run ./cmd/carsfuzz -n 200 -seed 1 -corpus fuzz-corpus
	$(GO) run -tags vetweaken ./cmd/carsfuzz -selftest -n 50 -seed 1 -corpus fuzz-corpus
	$(GO) run ./cmd/carsfuzz -backends-selftest -n 50 -seed 1

test:
	$(GO) test ./...

# Skip the whole-suite workload tests (fast development loop).
test-short:
	$(GO) test -short ./...

# Race matrix over every internal package in short mode — wider than
# serve-test (which races only the serving layer, unabridged).
race-short:
	$(GO) test -race -short ./internal/...

# Regenerate every table and figure (writes to stdout; see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/carsexp

# The same experiments as benchmarks, with headline metrics, plus the
# per-workload cycle/wall-time rows. -benchtime=1x: each simulation is
# deterministic, so one iteration is the measurement. cmd/benchjson
# tees the text stream and archives every row into BENCH_<date>.json
# (cycles + wall time per workload) for the perf trajectory.
# -timeout=40m: the full figure + ablation sweep outgrew go test's
# default 10m budget around the fig19 backend lattice.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem -timeout=40m . | $(GO) run ./cmd/benchjson

# Perf-trajectory diff: re-measure into a scratch snapshot and compare
# against the checked-in baseline, warning (never failing) on >5%
# simulated-cycle regressions. Override BENCH_BASELINE to diff against
# a different snapshot.
BENCH_BASELINE ?= BENCH_2026-08-08.json
bench-diff:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem -timeout=40m . | $(GO) run ./cmd/benchjson -o bench-head.json
	$(GO) run ./cmd/benchjson -compare $(BENCH_BASELINE) bench-head.json

# Profile the cycle loop: one BenchmarkSimMST iteration (sim.New, MST
# setup and its launches) under the CPU and heap profilers. Writes
# prof/cpu.out, prof/mem.out and the test binary they symbolise
# against; inspect with `go tool pprof prof/sim.test prof/cpu.out`.
prof:
	mkdir -p prof
	$(GO) test -run='^$$' -bench='^BenchmarkSimMST$$' -benchtime=1x -benchmem \
		-o prof/sim.test -cpuprofile prof/cpu.out -memprofile prof/mem.out ./internal/sim

# Serving-layer load smoke: build carsd + carsbench, start the daemon,
# drive a short fixed-seed closed-loop zipf run over HTTP, sanity-check
# the dedup counters, archive load-head.json, and diff it advisorily
# against the checked-in LOAD_ baseline (see scripts/loadbench.sh).
loadbench:
	bash scripts/loadbench.sh

# The serving layer's concurrency tests under the race detector:
# admission/drain races in the pool, single-flight collapse, LRU
# eviction, and the daemon's end-to-end contract.
serve-test:
	$(GO) test -race ./internal/serve/...

# Black-box daemon smoke: build carsd + carsctl, start the daemon,
# drive it over HTTP, assert the exported metric names, drain it.
serve-smoke:
	bash scripts/serve_smoke.sh

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/recursion
	$(GO) run ./examples/toolchain
	$(GO) run ./examples/raytracer
	$(GO) run ./examples/mlstack

clean:
	$(GO) clean ./...
