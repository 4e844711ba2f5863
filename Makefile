# carsgo — build, test, and reproduce the paper's evaluation.

GO ?= go

.PHONY: all build fmt vet lint check opt san fuzz test test-short race-short bench prof loadbench experiments published examples serve-smoke serve-test clean

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
# The racy demo must keep FAILING with exit status exactly 1 (findings,
# not an internal error): its shared race and divergent barrier are the
# sync/race analyses' acceptance test. go run reports every failure as
# 1, so carsvet is built once and run as a binary.
vet:
	$(GO) vet ./...
	bin=$$(mktemp -d) && trap 'rm -rf "$$bin"' EXIT && $(GO) build -o "$$bin/carsvet" ./cmd/carsvet || exit 2; \
	"$$bin/carsvet" -workloads || exit 1; \
	"$$bin/carsvet" examples/vetdemo/clean.carsasm || exit 1; \
	"$$bin/carsvet" -race examples/vetdemo/racy.carsasm; st=$$?; \
	[ $$st -eq 1 ] || { echo "carsvet -race examples/vetdemo/racy.carsasm exited $$st, want 1"; exit 1; }; \
	"$$bin/carsvet" internal/spec/testdata/workloads

# Repo-custom analyzers (internal/lint): ten analyzers over one
# type-checked load of the module — five checks on the simulator,
# linker and fuzzer packages they defend, and the carsguard suite's
# concurrency/resource-safety analysis of the serving layer (ctxflow,
# goleak, lockheld, atomicmix, metriclabels; DESIGN.md §13). The
# selftest holds every analyzer to its planted-violation fixture
# first: like the racy vet demo, the plants must keep FAILING, or the
# analyzers have lost their teeth.
lint:
	$(GO) run ./cmd/carslint -selftest
	$(GO) run ./cmd/carslint

# Pre-push gate: formatting, compile everything, both vet layers, the
# analyzer suite, the short test matrix, the optimizer soundness gate,
# and last the benchmark module. perfbench is its own module, so ./...
# skips it. Its tests check every sweep result against
# perfbench/oracle.json, but only some of the pooled toolchain specs:
# spec 0 and what two short runs reach. So a 10-second toolchain run
# follows; its last line must say "correct":true with at least 512
# specs attempted, which covers all 512 pooled specs and so every
# vet/ and opt/ digest in the oracle. A refactor that moves one
# simulated cycle or one byte of vet JSON fails here, not only in the
# benchmark. CI runs exactly this first.
check: fmt build vet lint test-short opt
	$(GO) -C perfbench test ./...
	@last=$$(bash perfbench/run.sh --workload toolchain --seed 1 --seconds 10 --trace 0 | tail -n 1); \
	echo "$$last"; \
	n=$$(printf '%s' "$$last" | sed -n 's/.*"attempted":\([0-9]*\).*/\1/p'); \
	case "$$last" in *'"correct":true'*) ;; *) echo "toolchain run is not correct"; exit 1;; esac; \
	[ "$${n:-0}" -ge 512 ] || { echo "toolchain run attempted $${n:-0} specs, want at least 512"; exit 1; }

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
# transaction counters held to sim/sanitizer parity. The broken demo
# must keep FAILING with exit status exactly 1 (findings, not an
# internal error): go run reports every failure as 1, so it runs as a
# built binary. Takes a few minutes.
san:
	$(GO) run ./cmd/carsvet -diff
	$(GO) run ./cmd/carsvet -diff examples/vetdemo/clean.carsasm
	bin=$$(mktemp -d) && trap 'rm -rf "$$bin"' EXIT && $(GO) build -o "$$bin/carsvet" ./cmd/carsvet || exit 2; \
	"$$bin/carsvet" -diff examples/vetdemo/broken.carsasm; st=$$?; \
	[ $$st -eq 1 ] || { echo "carsvet -diff examples/vetdemo/broken.carsasm exited $$st, want 1"; exit 1; }
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

# Every published number comes from one run of every exhibit
# (internal/experiments' TestPublished, build tag "published"): the
# generated blocks of EXPERIMENTS.md — each exhibit's table and the
# headline joined from them — and testdata/runs.golden, one line per
# simulation with its cycles and a digest of its result. `published`
# fails on any difference; `experiments` rewrites both files. A full
# run takes about 15 minutes on two cores, beyond go test's default
# 10-minute timeout.
PUBLISHED = $(GO) test -tags published -run '^TestPublished$$' -count=1 -timeout=40m ./internal/experiments
experiments:
	$(PUBLISHED) -update
published:
	$(PUBLISHED)

# Ablations on CARS' design choices (bench_test.go), one iteration
# each: every simulation is deterministic, so one run is the
# measurement.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem .

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
