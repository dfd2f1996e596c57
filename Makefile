# GPUShield reproduction — convenience targets.

GO ?= go

.PHONY: all build test test-race bench bench-json bench-guard experiments experiments-golden experiments-check experiments-smoke soak-smoke resume-smoke service-smoke fuzz-smoke fleet-smoke examples attackdemo vet fmt clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

test:
	$(GO) test ./...

# Full suite under the race detector (what CI runs).
test-race:
	$(GO) test -race ./...

# One testing.B per paper table/figure plus structure micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# Hot-path benchmark snapshot as machine-readable JSON (BENCH_PR10.json;
# the service-level numbers live separately in loadgen's BENCH_PR6.json):
# the simulator's hot paths plus the memory-model layers beneath them (TLB
# and cache tag stores, device set-up, the driver's page map).
# BENCHTIME=1x gives a fast smoke run (CI); the checked-in file is made with
# the default 2s x 3 repeats on a quiet machine — benchjson folds the
# repeats into a best-of-N record per benchmark, which is what keeps a
# single noisy scheduling window on a shared host from poisoning one
# metric (see the snapshot protocol in scripts/bench_compare.sh).
# Override BENCH to snapshot a different selection and BENCHOUT to write a
# different file.
BENCHTIME ?= 2s
BENCHCOUNT ?= 3
BENCHOUT ?= BENCH_PR10.json
BENCH ?= BenchmarkWarpIssueThroughput|BenchmarkMemInstrThroughput|BenchmarkMemPlanPaths|BenchmarkSimulatorThroughput|BenchmarkFunctionalMemPath|BenchmarkBackingReadUint|BenchmarkLaunchAllocs|BenchmarkDeviceSetup|BenchmarkMachineReset|BenchmarkTLBAccess|BenchmarkCacheAccess|BenchmarkMappedRange|BenchmarkKernelCodec
bench-json:
	$(GO) test ./internal/sim ./internal/memsys ./internal/driver ./internal/kernelfuzz -run '^$$' -bench '$(BENCH)' -benchtime $(BENCHTIME) -count $(BENCHCOUNT) -benchmem \
		| $(GO) run ./cmd/benchjson -o $(BENCHOUT)

# Fail if the serial hot paths — warp issue, cycle-level and functional
# mem-instr, backing-store reads — regressed >15%, or the launch path
# regrew allocations, against the pre-PR10 baseline (BENCH_PR10_base.json,
# recorded on the same host class; see the snapshot protocol in
# scripts/bench_compare.sh). PR 10 rebuilds the memory hot path around
# warp memory plans and transaction-granularity BCU checking; the guard
# holds the warp-issue and allocation lines while the mem-path lines move.
# The second pair guards the paged tag store and 4 KB backing granule: the
# cache and TLB hit/miss paths and backing reads may not slow by more than
# 15% against the pre-paging snapshot, and device set-up may not allocate
# more than it did before paging.
# The third pair guards machine reuse and the hand-written kernel codec:
# resetting a used device+GPU (BenchmarkMachineReset; the parent snapshot
# builds a fresh pair, which is all that revision could do) and a kernel
# encode+decode (BenchmarkKernelCodec; the parent ran the reflective codec)
# may not be slower or allocate more than before.
bench-guard:
	bash scripts/bench_compare.sh BENCH_PR10_base.json BENCH_PR10.json
	MATCH='BenchmarkTLBAccess|BenchmarkCacheAccess|BenchmarkBackingReadUint|BenchmarkFunctionalMemPath' \
		ALLOC_MATCH='BenchmarkDeviceSetup' \
		bash scripts/bench_compare.sh BENCH_PR14_layers_base.json BENCH_PR14_layers.json
	MATCH='BenchmarkMachineReset|BenchmarkKernelCodec' \
		ALLOC_MATCH='BenchmarkMachineReset|BenchmarkKernelCodec' \
		bash scripts/bench_compare.sh BENCH_PR16_layers_base.json BENCH_PR16_layers.json

# Regenerate every table and figure at full fidelity.
experiments:
	$(GO) run ./cmd/experiments -run all

# The whole sweep's stdout is archived in experiments_output.txt.
# experiments-golden rewrites it deliberately; experiments-check diffs a
# fresh sweep against it and fails on any difference (CI's sweep-golden job).
experiments-golden:
	$(GO) run ./cmd/experiments -run all >experiments_output.txt

experiments-check:
	@out=$$(mktemp) && $(GO) run ./cmd/experiments -run all >$$out && \
		diff -u experiments_output.txt $$out; rc=$$?; rm -f $$out; exit $$rc

# One fast experiment through the parallel engine under the race detector —
# the CI smoke test for the pool + memo cache.
experiments-smoke:
	$(GO) run -race ./cmd/experiments -run heap -parallel 4 -json

# Short fault-campaign soak under the race detector: loops campaigns under a
# deadline, checking cancellation, panic containment, and heap growth.
SOAK ?= 20s
soak-smoke:
	$(GO) run -race ./cmd/experiments -run faults -soak $(SOAK) -parallel 4

# Interrupt a -store sweep mid-flight (SIGINT, then kill -9), rerun it over
# the same store, and assert store hits and final stdout byte-identical to an
# uninterrupted run.
resume-smoke:
	bash scripts/resume_smoke.sh

# Boot gpushieldd, drive it with a mixed benign/malicious tenant burst, and
# assert zero cross-tenant corruption, detected OOBs, and a clean SIGTERM
# drain (exit 0).
service-smoke:
	bash scripts/service_smoke.sh

# Differential kernel fuzz at a fixed seed: 500 generated kernels with
# planted OOB faults, three-way oracle (static analyzer / BCU / ground
# truth), byte-identical reports across -parallel widths, and a race pass.
# Any disagreement fails with a shrunk reproducer in the error message.
fuzz-smoke:
	bash scripts/fuzz_smoke.sh

# Distribute a store-backed sweep over worker processes, kill -9 one
# mid-campaign, and assert completion, stdout byte-identical to a serial
# run, and a warm re-run that re-simulates zero configs.
fleet-smoke:
	bash scripts/fleet_smoke.sh

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/overflow
	$(GO) run ./examples/multikernel
	$(GO) run ./examples/staticanalysis
	$(GO) run ./examples/watchdog

attackdemo:
	$(GO) run ./cmd/attackdemo

clean:
	$(GO) clean ./...
