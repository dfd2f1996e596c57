package main

import (
	"context"
	"fmt"
	"time"

	"gpushield/internal/kernelfuzz"
)

// fuzzBatch is the case count of one kernelfuzz.Run call: four cases of
// each of the seven plant classes.
const fuzzBatch = 28

// fuzzWorkload runs the three-way differential fuzzer serially in batches:
// thousands of tiny kernels, each paying for device creation, analysis,
// two-mode simulation and ground-truth evaluation.
type fuzzWorkload struct{}

// batchSeed derives batch i's fuzz stream seed from the workload seed.
func batchSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

func fuzzOptions(seed int64) kernelfuzz.Options {
	return kernelfuzz.Options{Seed: seed, Count: fuzzBatch, Parallel: 1}
}

func (w *fuzzWorkload) setup(e *env) error {
	rep, err := kernelfuzz.Run(context.Background(), fuzzOptions(-1))
	if err != nil {
		return err
	}
	if len(rep.Findings) > 0 {
		return fmt.Errorf("warm-up batch: %s", rep.Findings[0])
	}
	return nil
}

func (w *fuzzWorkload) close() {}

func (w *fuzzWorkload) measure(e *env, tr *tracer) (*tally, error) {
	t := newTally()
	t.primary = "cases_per_s"
	var lats, cpus []float64 // per batch: wall ms, CPU seconds
	findings := 0
	start := time.Now()
	batches := 0
	for ; ; batches++ {
		sp := tr.begin("kernelfuzz.run", 0)
		t0, c0 := time.Now(), cpuSeconds()
		rep, err := kernelfuzz.Run(context.Background(), fuzzOptions(batchSeed(e.seed, batches)))
		cpus = append(cpus, cpuSeconds()-c0)
		lats = append(lats, float64(time.Since(t0).Nanoseconds())/1e6)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", batches, err)
		}
		t.attempted += fuzzBatch
		bad := map[int]bool{}
		for _, f := range rep.Findings {
			if !bad[f.Case] {
				bad[f.Case] = true
				t.fail("fuzz batch %d: %s", batches, f)
			}
		}
		findings += len(rep.Findings)
		if p := e.checkFuzz(batches, digest(rep.Render())); p != "" {
			t.fail("%s", p)
		}
		if e.quick || time.Since(start) >= e.seconds {
			batches++
			break
		}
	}
	// kernelfuzz.Run reports no simulated counts, so the fuzzer's
	// instruction throughput counts the IR instructions of its cases. Both
	// rates are per CPU second of the process, collector included, and are
	// medians of per-batch rates, so neither the other guests of a shared
	// host nor a burst of the collector during a few batches sets them.
	var caseRates, instrRates []float64
	for b := range batches {
		n := 0
		for i := range fuzzBatch {
			n += kernelfuzz.InstrCount(kernelfuzz.Generate(batchSeed(e.seed, b), i))
		}
		t.instrs += float64(n)
		caseRates = append(caseRates, fuzzBatch/cpus[b])
		instrRates = append(instrRates, float64(n)/cpus[b])
	}
	t.e2e["winstr_per_s"] = median(instrRates)
	t.e2e["cases_per_s"] = median(caseRates)
	t.e2e["max_rate_rps"] = t.e2e["cases_per_s"]
	t.e2e["p50_ms"] = percentile(lats, 0.50)
	t.e2e["p99_ms"] = percentile(lats, 0.99)
	t.layer["kernelfuzz.findings"] = float64(findings)
	return t, nil
}
