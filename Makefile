# Tier-1 verification and developer shortcuts. CI (.github/workflows/ci.yml)
# runs these same targets on every push: `make ci` is the tier1 job, and the
# lint / chaos-short / chaos-tcp / sim-fast / sim-scale / fuzz-smoke /
# bench-regress targets back the remaining jobs one-for-one, so a green
# `make ci-full` locally means a green wall.

GO ?= go

# bench-json iteration budget: 1s for real measurements, overridable (CI's
# bench-smoke passes 1x to guard against bit-rot without timing flakiness).
BENCHTIME ?= 1s

.PHONY: all build test vet lint race tier1 perfbench-check ci ci-full bench bench-tail bench-json bench-smoke bench-regress chaos-short chaos-tcp fuzz-smoke sim-fast sim-scale e2e-smoke

all: ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The determinism lint wall (internal/lint): wallclock, rawgo, globalrand,
# lockspan, epsblind plus the bundled vet-lite passes, with mandatory-reason
# //pqslint:allow suppressions. Must exit 0 on the whole tree; see the
# "Static analysis & determinism invariants" section of README.md.
lint:
	$(GO) run ./cmd/pqs-lint ./...

race:
	$(GO) test -race ./internal/register/ ./internal/transport/ ./internal/quorum/ ./internal/replica/ ./internal/chaos/ ./internal/diffusion/

# tier1 is the repository's acceptance gate: it must pass from a clean
# checkout.
tier1: build test

# perfbench is its own Go module (it builds against this one through a
# replace directive), so `go build ./...` never compiles it. This target
# vets and tests it, so an API change that breaks the repo benchmark fails
# CI instead of the next benchmark run.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# ci mirrors the CI tier1 job exactly (vet, lint, build, test, race,
# bench-smoke, perfbench-check).
ci: vet lint tier1 race bench-smoke perfbench-check

# ci-full runs every CI job locally.
ci-full: ci chaos-short chaos-tcp sim-fast sim-scale fuzz-smoke bench-regress

bench:
	$(GO) test -bench=. -benchmem ./...

# The straggler-tolerance headline numbers: wait-for-all vs hedged p50/p99,
# and the empirical-ε validation with hedging enabled.
bench-tail:
	$(GO) test -run 'XXX' -bench 'ReadTailLatency|EpsilonBenignHedged|EpsilonMaskingHedged' -benchtime 2s .

# The data-plane throughput numbers: binary codec encode/decode cost and
# end-to-end ops/sec over MemNetwork and TCP, recorded as
# machine-readable JSON so the perf trajectory across PRs has data points.
# Staged through a temp file rather than a pipe so a benchmark failure
# fails the target (/bin/sh has no pipefail).
bench-json:
	$(GO) test -run 'XXX' -bench '^(BenchmarkThroughput|BenchmarkCodec|BenchmarkHighFanIn)' -benchmem -benchtime $(BENCHTIME) . > BENCH_throughput.out
	$(GO) run ./cmd/benchjson < BENCH_throughput.out > BENCH_throughput.json
	@rm -f BENCH_throughput.out
	@echo "wrote BENCH_throughput.json"

# CI bit-rot guard: run every throughput/codec benchmark for one iteration
# and verify the JSON pipeline still produces a well-formed document.
# Staged through a scratch file so the committed BENCH_throughput.json —
# the bench-regress baseline — is never clobbered with 1-iteration rates.
bench-smoke:
	$(GO) test -run 'XXX' -bench '^(BenchmarkThroughput|BenchmarkCodec|BenchmarkHighFanIn)' -benchmem -benchtime 1x . > BENCH_smoke.out
	$(GO) run ./cmd/benchjson < BENCH_smoke.out > BENCH_smoke.json
	@rm -f BENCH_smoke.out
	$(GO) run ./cmd/benchjson -check BENCH_smoke.json
	@rm -f BENCH_smoke.json

# The throughput regression gate: measure fresh numbers (full 1s rounds, so
# the rates are real) and compare them against the committed
# BENCH_throughput.json, failing on any benchmark whose ops/sec dropped by
# more than BENCH_TOLERANCE. The tolerance is 30%: wide enough to absorb
# run-to-run and runner-hardware noise (the committed baseline was measured
# on a developer machine; CI runners differ), narrow enough that a real
# data-plane regression — a lost fast path, an accidental extra syscall per
# frame — trips it. Refresh the baseline with `make bench-json` when a PR
# legitimately moves the numbers.
BENCH_TOLERANCE ?= 0.30
bench-regress:
	$(GO) test -run 'XXX' -bench '^(BenchmarkThroughput|BenchmarkCodec|BenchmarkHighFanIn)' -benchmem -benchtime $(BENCHTIME) . > BENCH_fresh.out
	$(GO) run ./cmd/benchjson < BENCH_fresh.out > BENCH_fresh.json
	@rm -f BENCH_fresh.out
	$(GO) run ./cmd/benchjson -compare BENCH_throughput.json BENCH_fresh.json -tolerance $(BENCH_TOLERANCE)
	@rm -f BENCH_fresh.json

# The adversarial regression gate: the full chaos scenario matrix at small
# trial counts (seconds, deterministic in CHAOS_SEED), plus the negative
# scenario demonstrating the checker fails when ε exceeds the bound. A
# failing seed replays locally with the same command or with
# `go test ./internal/chaos -run TestChaos -chaos.seed=N`. -json records
# the per-scenario ε trend to BENCH_epsilon.json (uploaded as a CI
# artifact, like BENCH_throughput.json for throughput).
CHAOS_SEED ?= 1
chaos-short:
	$(GO) run ./cmd/pqs-chaos -scale 1 -seed $(CHAOS_SEED) -negative -json -o /dev/null

# The real-wire chaos gate: the same scenario matrix over BOTH data planes
# (MemNetwork and the virtual-time TCP stack), each scenario run TWICE per
# plane with one seed — the run fails unless the histories replay
# byte-for-byte, which is the determinism contract for the data plane
# production actually runs. BENCH_epsilon.json gains one section per
# transport. Replay a CI failure locally with the same command and
# CHAOS_SEED=N, or `go test ./internal/chaos -run TCPVirtual -chaos.seed=N`.
chaos-tcp:
	$(GO) run ./cmd/pqs-chaos -scale 1 -seed $(CHAOS_SEED) -transport mem,tcp-virtual -verify-determinism -json -o /dev/null

# The virtual-time gate: the long-form ε measurements (hundreds of
# write-then-read trials through chaos.Run over a 100-server cluster with
# tens of milliseconds of injected latency, stragglers and adaptive
# hedging — minutes of simulated time that used to be far too slow for CI)
# run under vtime.SimClock and must finish >= 50x (MemNetwork) / >= 20x
# (virtual TCP data plane) faster than the simulated duration, proving the
# speedup is real and gating regressions that reintroduce wall-clock waits
# into the simulated path. The tests are built with !race: `make race`
# covers ./internal/chaos but would trip these wall-clock gates.
sim-fast:
	$(GO) test -run 'TestSimFastLongFormEpsilon|TestSimFastLongFormEpsilonTCP|TestAdaptiveHedgeEpsilonPreserved' -v ./internal/chaos

# The population-scale gate: the internal/load scale/ matrix — 10k-client
# open-loop populations against n=1000 and n=2000 universes (plus a
# reduced-scale point on the real TCP stack), over a million operations in
# total, with churn waves gated by the time-decayed timed-quorum bound.
# Every scale point runs TWICE and must replay byte-for-byte (digest +
# full-result comparison); -negative proves the gate fails a view-blind
# storm; -budget 5m keeps the whole matrix CI-affordable, failing the
# target if simulation ever gets slow enough to blow the wall-clock
# budget. -json records per-scale-point ε / staleness-depth / tail-latency
# metrics to BENCH_epsilon.json (the CI artifact). Scale points are
# independent simulations, so they run on a bounded worker pool
# (-load-parallel, default half the cores) without affecting any digest.
# A failing seed replays locally with the same command and CHAOS_SEED=N.
sim-scale:
	$(GO) run ./cmd/pqs-chaos -load -seed $(CHAOS_SEED) -negative -verify-determinism -json -budget 5m -o /dev/null

# Ten seconds of coverage-guided fuzzing each for the binary codec's decode
# surface, the virtual byte-stream fault injector and the ring-view decoder
# (views are read back from the data plane, where a Byzantine replica can
# forge one), so all three fuzz targets actually execute in CI rather than
# only replaying their seed corpora.
fuzz-smoke:
	$(GO) test -run XXX -fuzz FuzzDecodeMessage -fuzztime 10s ./internal/wire
	$(GO) test -run XXX -fuzz FuzzVNetFaultInjector -fuzztime 10s ./internal/transport
	$(GO) test -run XXX -fuzz FuzzDecodeView -fuzztime 10s ./internal/ring

# The end-to-end smoke gate: build the real pqsd/pqs-cli binaries, stand a
# 5-replica cluster up on loopback TCP, write and read through the CLI, kill
# one server, and require reads to keep succeeding. Guarded behind PQS_E2E=1
# so ordinary `go test ./...` runs stay hermetic.
e2e-smoke:
	PQS_E2E=1 $(GO) test -run TestE2ESmoke -v -count=1 .
