// Package experiments regenerates every table and figure of the paper's
// evaluation (§7-§8). Each experiment builds its workloads, drives the
// cycle-level simulator under the relevant configurations, and prints the
// same rows/series the paper reports. The per-experiment index lives in
// DESIGN.md; measured-vs-paper numbers are recorded in EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"sort"

	"gpushield/internal/compiler"
	"gpushield/internal/core"
	"gpushield/internal/driver"
	"gpushield/internal/sim"
	"gpushield/internal/stats"
	"gpushield/internal/workloads"
)

// Quick trades fidelity for speed: experiments consult it to shrink
// problem scales (the benchmark harness sets it so `go test -bench` stays
// tractable; cmd/experiments leaves it off for full-fidelity tables).
var Quick bool

// DefaultSeed is the driver seed used when RunOpts.Seed is left nil.
const DefaultSeed int64 = 12345

// RunOpts configures one benchmark execution.
type RunOpts struct {
	Arch       string // "nvidia" or "intel"; default chosen from the benchmark's API
	Mode       driver.Mode
	BCU        core.BCUConfig // zero value = paper default
	Scale      int            // problem-size multiplier, default 1
	TrackPages bool
	// Seed pins the driver's randomness stream (buffer IDs, kernel keys).
	// nil means "never set" and selects DefaultSeed; an explicit zero is a
	// legal, distinct seed. Build one inline with FixedSeed.
	Seed *int64
}

// FixedSeed returns a RunOpts.Seed pinning the driver seed to v (zero
// included).
func FixedSeed(v int64) *int64 { return &v }

// effectiveSeed resolves the seed the run will actually use.
func (o RunOpts) effectiveSeed() int64 {
	if o.Seed == nil {
		return DefaultSeed
	}
	return *o.Seed
}

func (o RunOpts) config(api string) sim.Config {
	arch := o.Arch
	if arch == "" {
		arch = "nvidia"
		if api == "opencl" {
			arch = "intel"
		}
	}
	cfg := sim.NvidiaConfig()
	if arch == "intel" {
		cfg = sim.IntelConfig()
	}
	if o.Mode != driver.ModeOff {
		bcu := o.BCU
		if bcu.L1Entries == 0 {
			bcu = core.DefaultBCUConfig()
		}
		cfg = cfg.WithShield(bcu)
	}
	return cfg
}

// RunBenchmark builds and executes one benchmark under the given options.
// Runs go through the process-wide engine: identical (benchmark, options)
// requests are simulated once and every caller receives its own deep copy
// of the stats.
func RunBenchmark(ctx context.Context, b workloads.Benchmark, o RunOpts) (*sim.LaunchStats, error) {
	return defaultEngine.RunBenchmark(ctx, b, o)
}

// runBenchmarkUncached is the raw compute path behind the engine's memo
// cache: build a private device + GPU and simulate. Cancellation aborts
// the in-flight launch (sim.ErrCanceled) and discards the partial stats —
// a canceled benchmark run has no meaningful aggregate.
func runBenchmarkUncached(ctx context.Context, b workloads.Benchmark, o RunOpts) (*sim.LaunchStats, error) {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	dev := driver.NewDevice(o.effectiveSeed())
	spec, err := b.Build(dev, o.Scale)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", b.Name, err)
	}
	var an *compiler.Analysis
	if o.Mode == driver.ModeShieldStatic {
		an, err = compiler.Analyze(spec.Kernel, spec.Info())
		if err != nil {
			return nil, fmt.Errorf("%s: analyze: %w", b.Name, err)
		}
	}
	gpu := sim.New(o.config(b.API), dev)
	gpu.TrackPages(o.TrackPages)
	// Applications that launch their kernel repeatedly see a mix of cold
	// and warm caches; replay up to three launches and accumulate their
	// cycles, mirroring the app-level behaviour the paper measures.
	launches := 1
	if spec.Invocations > 1 {
		launches = 3
	}
	var agg *sim.LaunchStats
	for i := 0; i < launches; i++ {
		l, err := dev.PrepareLaunch(spec.Kernel, spec.Grid, spec.Block, spec.Args, o.Mode, an)
		if err != nil {
			return nil, fmt.Errorf("%s: prepare: %w", b.Name, err)
		}
		st, err := gpu.RunCtx(ctx, l)
		if err != nil {
			return nil, fmt.Errorf("%s: run: %w", b.Name, err)
		}
		if st.Aborted {
			return nil, fmt.Errorf("%s: aborted: %s", b.Name, st.AbortMsg)
		}
		if agg == nil {
			// Defensive copy: the aggregate must not alias the first
			// launch's stats, which accumulate would otherwise mutate.
			agg = st.Clone()
		} else {
			accumulate(agg, st)
		}
	}
	return agg, nil
}

// accumulate folds a subsequent launch's statistics into dst: cycles and
// counters add up; page sets take the final launch's census.
func accumulate(dst, src *sim.LaunchStats) {
	dst.FinishCycle += src.Cycles()
	dst.WarpInstrs += src.WarpInstrs
	dst.ThreadInstrs += src.ThreadInstrs
	dst.MemInstrs += src.MemInstrs
	dst.Transactions += src.Transactions
	dst.SharedAccs += src.SharedAccs
	dst.L1DAccesses += src.L1DAccesses
	dst.L1DHits += src.L1DHits
	dst.L2Accesses += src.L2Accesses
	dst.L2Hits += src.L2Hits
	dst.L1TLBMisses += src.L1TLBMisses
	dst.L2TLBMisses += src.L2TLBMisses
	dst.Checks += src.Checks
	dst.Type3Checks += src.Type3Checks
	dst.Skipped += src.Skipped
	dst.RL1Hits += src.RL1Hits
	dst.RL2Hits += src.RL2Hits
	dst.RBTFetches += src.RBTFetches
	dst.BCUStalls += src.BCUStalls
	dst.Violations = append(dst.Violations, src.Violations...)
	if src.PagesPerBuffer != nil {
		dst.PagesPerBuffer = src.PagesPerBuffer
	}
}

// Result is one experiment's output.
type Result struct {
	ID     string
	Title  string
	Tables []*stats.Table
	Notes  []string
}

// String renders the full result.
func (r *Result) String() string {
	s := fmt.Sprintf("== %s: %s ==\n", r.ID, r.Title)
	for _, t := range r.Tables {
		s += t.String() + "\n"
	}
	for _, n := range r.Notes {
		s += "note: " + n + "\n"
	}
	return s
}

// Experiment is a registered, runnable reproduction target. Run observes
// its context: cancellation aborts in-flight simulations and surfaces an
// error matching sim.ErrCanceled (or the context's cause).
type Experiment struct {
	ID    string
	Title string
	Run   func(ctx context.Context) (*Result, error)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every experiment in a stable order.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
