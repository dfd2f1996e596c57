package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"gpushield/internal/compiler"
	"gpushield/internal/core"
	"gpushield/internal/driver"
	"gpushield/internal/sim"
	"gpushield/internal/workloads"
)

// simJob is one benchmark launch: Build, Analyze (shield+static only),
// PrepareLaunch, GPU.Run and Verify on a fresh device and GPU, as the
// experiment sweep does.
type simJob struct {
	b     workloads.Benchmark
	scale int
	mode  driver.Mode
}

func (j simJob) bench() string { return fmt.Sprintf("%s@%d", j.b.Name, j.scale) }
func (j simJob) key() string   { return j.bench() + "/" + j.mode.String() }

// simWorkload runs passes over a fixed job list, each pass in a seeded
// order on devices seeded with the workload seed.
type simWorkload struct {
	name   string
	jobs   []simJob
	warmup []simJob
	quickN int // jobs per pass in quick mode
}

// newCorpus is the paper's evaluation mix: every benchmark at scale 2 in
// off, shield and shield+static modes. Footprints stay under 1 MB, so the
// L2 mostly hits and host time goes to warp issue and the BCU seam.
func newCorpus() *simWorkload {
	w := &simWorkload{name: "corpus", quickN: 6}
	modes := []driver.Mode{driver.ModeOff, driver.ModeShield, driver.ModeShieldStatic}
	for _, b := range workloads.All() {
		for _, m := range modes {
			w.jobs = append(w.jobs, simJob{b, 2, m})
		}
	}
	w.warmup = warmupJobs(modes, "vectoradd", "ocl-nn")
	return w
}

// bigmemSet holds benchmarks scaled past the modelled 2 MB L2 and the
// 256 KB reach of the L1 TLB, so the miss, thrash and DRAM paths of the
// same memory model carry the host time.
var bigmemSet = []struct {
	name  string
	scale int
}{
	{"gaussian", 16},       // 18 MB, L2 hit 0.32, 4% L1-TLB misses per transaction
	{"particlefilter", 64}, // 5 MB, L2 hit 0.00, 19% TLB misses
	{"bfs", 32},            // 2.5 MB, 8% TLB misses, verified
	{"spmv", 16},           // 3 MB, L1D hit 0.08
	{"streamcluster", 16},  // 2 MB, L2 hit 0.11
}

func newBigmem() *simWorkload {
	w := &simWorkload{name: "bigmem", quickN: 2}
	modes := []driver.Mode{driver.ModeOff, driver.ModeShield}
	for _, e := range bigmemSet {
		b, err := workloads.ByName(e.name)
		if err != nil {
			panic(err) // the set names registered benchmarks
		}
		for _, m := range modes {
			w.jobs = append(w.jobs, simJob{b, e.scale, m})
		}
	}
	w.warmup = warmupJobs(modes, "vectoradd")
	return w
}

// warmupJobs runs small fixed benchmarks in every mode so lazy
// initialisation is paid in set-up, independent of the seed.
func warmupJobs(modes []driver.Mode, names ...string) []simJob {
	var out []simJob
	for _, n := range names {
		b, err := workloads.ByName(n)
		if err != nil {
			panic(err)
		}
		for _, m := range modes {
			out = append(out, simJob{b, 1, m})
		}
	}
	return out
}

func simConfig(api string, mode driver.Mode) sim.Config {
	cfg := sim.NvidiaConfig()
	if api == "opencl" {
		cfg = sim.IntelConfig()
	}
	if mode != driver.ModeOff {
		cfg = cfg.WithShield(core.DefaultBCUConfig())
	}
	return cfg
}

// runJob executes one job, recording a span around each layer call.
func runJob(j simJob, seed int64, tr *tracer, parent int) (*sim.LaunchStats, error) {
	dev := driver.NewDevice(seed)
	var spec *workloads.Spec
	var err error
	tr.timed("workloads.build", parent, func() { spec, err = j.b.Build(dev, j.scale) })
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	var an *compiler.Analysis
	if j.mode == driver.ModeShieldStatic {
		tr.timed("compiler.analyze", parent, func() { an, err = compiler.Analyze(spec.Kernel, spec.Info()) })
		if err != nil {
			return nil, fmt.Errorf("analyze: %w", err)
		}
	}
	var l *driver.Launch
	tr.timed("driver.prepare", parent, func() {
		l, err = dev.PrepareLaunch(spec.Kernel, spec.Grid, spec.Block, spec.Args, j.mode, an)
	})
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	var st *sim.LaunchStats
	tr.timed("sim.run", parent, func() { st, err = sim.New(simConfig(j.b.API, j.mode), dev).Run(l) })
	switch {
	case err != nil:
		return nil, fmt.Errorf("run: %w", err)
	case st.Aborted:
		return nil, fmt.Errorf("aborted: %s", st.AbortMsg)
	case len(st.Violations) > 0:
		return nil, fmt.Errorf("%d bounds violations in a benign benchmark", len(st.Violations))
	}
	if spec.Verify != nil {
		tr.timed("workloads.verify", parent, func() { err = spec.Verify(dev) })
		if err != nil {
			return nil, fmt.Errorf("verify: %w", err)
		}
	}
	return st, nil
}

// setup runs the warm-up launches and builds every benchmark's inputs once,
// so lazy initialisation and any input caching land in set-up time.
func (w *simWorkload) setup(e *env) error {
	for _, j := range w.warmup {
		if _, err := runJob(j, defaultSeed, nil, 0); err != nil {
			return fmt.Errorf("warm-up %s: %w", j.key(), err)
		}
	}
	for _, j := range w.jobs {
		if j.mode != driver.ModeOff {
			continue
		}
		if _, err := j.b.Build(driver.NewDevice(e.seed), j.scale); err != nil {
			return fmt.Errorf("build %s: %w", j.bench(), err)
		}
	}
	return nil
}

func (w *simWorkload) close() {}

// measure runs whole passes while another pass of the last pass's length
// still fits in e.seconds (at least one). The rates are per CPU second of
// the process, so the other guests of a shared host do not set them, and
// are medians of per-pass rates: every pass runs the same jobs, so a stall
// during one pass does not set them either.
func (w *simWorkload) measure(e *env, tr *tracer) (*tally, error) {
	t := newTally()
	t.primary = "winstr_per_s"
	rng := rand.New(rand.NewSource(e.seed))
	var (
		lats               []float64
		agg                sim.LaunchStats
		launches           float64
		reduced, reducible uint64
		cycles             = map[string][2]uint64{} // benchmark -> off, shield cycles
		instrRates         []float64
		runRates           []float64
	)
	start := time.Now()
	for {
		passStart, passCPU := time.Now(), cpuSeconds()
		passInstrs := agg.WarpInstrs
		order := rng.Perm(len(w.jobs))
		if e.quick {
			order = order[:w.quickN]
		}
		pass := tr.begin("pass", 0)
		for _, i := range order {
			j := w.jobs[i]
			sp := tr.begin("run "+j.key(), pass)
			t0 := time.Now()
			st, err := runJob(j, e.seed, tr, sp)
			lats = append(lats, float64(time.Since(t0).Nanoseconds())/1e6)
			tr.end(sp)
			t.attempted++
			launches++
			if err != nil {
				t.fail("%s/%s: %v", w.name, j.key(), err)
				continue
			}
			if p := e.checkRun(w.name+"/"+j.key(), statsDigest(st)); p != "" {
				t.fail("%s", p)
			}
			addStats(&agg, st)
			if j.mode == driver.ModeShieldStatic {
				reduced += st.Skipped + st.Type3Checks
				reducible += st.Skipped + st.Type3Checks + st.Checks
			}
			if j.mode != driver.ModeShieldStatic {
				c := cycles[j.bench()]
				c[j.mode] = st.Cycles() // ModeOff is 0, ModeShield 1
				cycles[j.bench()] = c
			}
		}
		tr.end(pass)
		passSecs := cpuSeconds() - passCPU
		instrRates = append(instrRates, float64(agg.WarpInstrs-passInstrs)/passSecs)
		runRates = append(runRates, float64(len(order))/passSecs)
		if e.quick || time.Since(start)+time.Since(passStart) > e.seconds {
			break
		}
	}
	t.instrs = float64(agg.WarpInstrs)
	t.e2e["winstr_per_s"] = median(instrRates)
	t.e2e["cases_per_s"] = median(runRates)
	// One client waiting on each launch: the completion rate is the
	// highest arrival rate the system sustains on the CPU it is given.
	t.e2e["max_rate_rps"] = t.e2e["cases_per_s"]
	t.e2e["p50_ms"] = percentile(lats, 0.50)
	t.e2e["p99_ms"] = percentile(lats, 0.99)

	l := t.layer
	l["sim.winstrs"] = float64(agg.WarpInstrs)
	l["sim.cycles"] = float64(agg.FinishCycle)
	l["memsys.transactions"] = float64(agg.Transactions)
	l["memsys.l1d_hit_rate"] = ratio(agg.L1DHits, agg.L1DAccesses)
	l["memsys.l2_hit_rate"] = ratio(agg.L2Hits, agg.L2Accesses)
	l["memsys.l1tlb_miss_per_tx"] = ratio(agg.L1TLBMisses, agg.Transactions)
	l["core.checks"] = float64(agg.Checks)
	l["core.rl1_hit_rate"] = ratio(agg.RL1Hits, agg.Checks)
	l["core.rbt_fetches"] = float64(agg.RBTFetches)
	l["core.bcu_stall_cycles"] = float64(agg.BCUStalls)
	l["compiler.check_reduction"] = ratio(reduced, reducible)
	l["driver.launches"] = launches
	l["shield_overhead_pct"] = shieldOverheadPct(cycles)
	return t, nil
}

// addStats sums a launch's counters into agg; FinishCycle holds the summed
// cycles.
func addStats(agg, st *sim.LaunchStats) {
	agg.FinishCycle += st.Cycles()
	agg.WarpInstrs += st.WarpInstrs
	agg.Transactions += st.Transactions
	agg.L1DAccesses += st.L1DAccesses
	agg.L1DHits += st.L1DHits
	agg.L2Accesses += st.L2Accesses
	agg.L2Hits += st.L2Hits
	agg.L1TLBMisses += st.L1TLBMisses
	agg.Checks += st.Checks
	agg.RL1Hits += st.RL1Hits
	agg.RBTFetches += st.RBTFetches
	agg.BCUStalls += st.BCUStalls
}

// shieldOverheadPct is the geometric mean over benchmarks of shield/off
// simulated cycles, minus one, in percent.
func shieldOverheadPct(cycles map[string][2]uint64) float64 {
	var logSum float64
	n := 0
	for _, c := range cycles {
		if c[0] > 0 && c[1] > 0 {
			logSum += math.Log(float64(c[1]) / float64(c[0]))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return (math.Exp(logSum/float64(n)) - 1) * 100
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
