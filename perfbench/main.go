// Command perfbench is the repository benchmark. It drives the simulator
// stack from outside through its public functions on one named workload,
// checks every output, and prints each metric by name and unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// benchmark measures once untraced and once with spans and a CPU profile,
// and prints the per-layer metrics and the tracing overhead. Spans are
// written under .bench_build/perfbench.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload corpus --seed 1 --seconds 10 --trace 0
//
// Workloads, metric definitions and the recorded seeds are described in
// perfbench/README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// Seeds recorded in README.md: reference digests exist for defaultSeed;
// heldOutSeed is kept for checking that a change holds on unseen inputs.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

// setupRepeats is how many times set-up runs; setup_s is the median of the
// process CPU time each set-up took.
const setupRepeats = 9

type metricDef struct{ name, unit string }

// endToEnd and perLayer list every metric the benchmark prints, in order.
// BENCHMARK.json must declare the same names and units.
var endToEnd = []metricDef{
	{"winstr_per_s", "1/s"},
	{"cases_per_s", "1/s"},
	{"max_rate_rps", "1/s"},
	{"setup_s", "s"},
}

// unboundedMetrics are end-to-end figures printed with the per-layer
// metrics, from the traced run's untraced measurement: their spread from run
// to run on a shared host is wider than any bound BENCHMARK.json may set.
var unboundedMetrics = []metricDef{
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

var perLayer = append(unboundedMetrics, []metricDef{
	{"sim.run_s", "s"},
	{"sim.winstrs", "count"},
	{"sim.cycles", "count"},
	{"sim.host_ns_per_winstr", "ns"},
	{"sim.cpu_share", "ratio"},
	{"memsys.transactions", "count"},
	{"memsys.l1d_hit_rate", "ratio"},
	{"memsys.l2_hit_rate", "ratio"},
	{"memsys.l1tlb_miss_per_tx", "ratio"},
	{"memsys.cpu_share", "ratio"},
	{"core.checks", "count"},
	{"core.rl1_hit_rate", "ratio"},
	{"core.rbt_fetches", "count"},
	{"core.bcu_stall_cycles", "count"},
	{"core.cpu_share", "ratio"},
	{"shield_overhead_pct", "%"},
	{"workloads.build_s", "s"},
	{"workloads.verify_s", "s"},
	{"workloads.cpu_share", "ratio"},
	{"compiler.analyze_s", "s"},
	{"compiler.check_reduction", "ratio"},
	{"compiler.cpu_share", "ratio"},
	{"driver.prepare_s", "s"},
	{"driver.launches", "count"},
	{"driver.cpu_share", "ratio"},
	{"kernelfuzz.cpu_share", "ratio"},
	{"kernelfuzz.findings", "count"},
	{"service.launches", "count"},
	{"service.shed_429", "count"},
	{"service.shed_503", "count"},
	{"service.cross_tenant_blocked", "count"},
	{"service.cpu_share", "ratio"},
	{"http.rtt_ms_p50", "ms"},
	{"http.handler_ms_p50", "ms"},
	{"http.cpu_share", "ratio"},
	{"runtime.gc_cpu_share", "ratio"},
	{"runtime.alloc_bytes_per_winstr", "bytes"},
	{"loadgen.lateness_ms_p99", "ms"},
	{"trace.overhead_pct", "%"},
}...)

// workload is one set of inputs the benchmark runs.
type workload interface {
	// setup makes the workload ready to measure and runs one warm-up
	// operation; it is timed and repeated, releasing the previous state.
	setup(e *env) error
	// measure runs operations for e.seconds and checks each one. A nil
	// tracer means an untraced run.
	measure(e *env, tr *tracer) (*tally, error)
	close()
}

// env is what every workload receives: the seed that generates its inputs,
// the measuring time, and the reference outputs to compare against.
type env struct {
	seed    int64
	seconds time.Duration
	quick   bool // a few operations only, for the harness test
	ref     *reference
	record  bool // store digests in ref instead of comparing
}

// tally is one measurement's outcome.
type tally struct {
	attempted, failed int
	problems          []string
	e2e               map[string]float64 // end-to-end figures other than setup_s
	layer             map[string]float64 // per-layer counts the workload observes itself
	instrs            float64            // the instruction count behind winstr_per_s
	primary           string             // the rate that measures tracing overhead
}

func newTally() *tally {
	return &tally{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (t *tally) fail(format string, a ...any) {
	t.failed++
	if len(t.problems) < 8 {
		t.problems = append(t.problems, fmt.Sprintf(format, a...))
	}
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "corpus":
		return newCorpus(), nil
	case "bigmem":
		return newBigmem(), nil
	case "fuzz":
		return &fuzzWorkload{}, nil
	case "serve":
		return &serveWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want corpus, bigmem, fuzz or serve)", name)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	problems  []string
	tracePath string
}

func main() {
	name := flag.String("workload", "", "corpus, bigmem, fuzz or serve")
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 10, "measuring time per run")
	trace := flag.Int("trace", 0, "1 for a traced run that prints per-layer metrics")
	quick := flag.Bool("quick", false, "run a few operations of the workload, for one second at most, through the same checks")
	record := flag.String("record", "", "write this workload's output digests at the default seed into this reference file")
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace, *quick, *record); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds, trace int, quick bool, record string) error {
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	ref, err := loadReference(record)
	if err != nil {
		return err
	}
	if record != "" && seed != ref.Seed {
		return fmt.Errorf("--record needs --seed %d", ref.Seed)
	}
	if quick {
		seconds = 1
	}
	e := &env{seed: seed, seconds: time.Duration(seconds) * time.Second, quick: quick, ref: ref, record: record != ""}
	res, err := run(name, e, trace == 1, ".bench_build/perfbench")
	if err != nil {
		return err
	}
	if record != "" {
		if err := ref.save(record); err != nil {
			return err
		}
	}
	printResult(os.Stdout, res, trace == 1)
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", p)
	}
	return nil
}

// run sets the workload up setupRepeats times, measures it, and assembles
// the metrics. A traced run measures twice: untraced, then traced.
func run(name string, e *env, traced bool, traceDir string) (*result, error) {
	w, err := newWorkload(name)
	if err != nil {
		return nil, err
	}
	defer w.close()
	var setups []float64
	for range setupRepeats {
		w.close()
		c0 := cpuSeconds()
		if err := w.setup(e); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", name, err)
		}
		setups = append(setups, cpuSeconds()-c0)
	}

	runtime.GC() // each measurement starts from a collected heap
	plain, err := w.measure(e, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	plain.e2e["peak_rss_mb"] = peakRSSMB()
	res := &result{Metrics: map[string]metricValue{}}
	add := func(t *tally) {
		res.Attempted += t.attempted
		res.Failed += t.failed
		res.problems = append(res.problems, t.problems...)
	}
	add(plain)
	if !traced {
		vals := plain.e2e
		vals["setup_s"] = median(setups)
		fill(res, endToEnd, vals)
	} else {
		tr := newTracer()
		runtime.GC()
		var before, after runtime.MemStats
		var prof bytes.Buffer
		runtime.ReadMemStats(&before)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		t, err := w.measure(e, tr)
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", name, err)
		}
		add(t)
		p, err := parseProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		vals := layerMetrics(t, tr, p, float64(after.TotalAlloc-before.TotalAlloc))
		vals["trace.overhead_pct"] = overheadPct(plain, t)
		for _, d := range unboundedMetrics {
			vals[d.name] = plain.e2e[d.name]
		}
		fill(res, perLayer, vals)
		if res.tracePath, err = tr.write(traceDir, fmt.Sprintf("spans-%s-seed%d.json", name, e.seed)); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// layerMetrics derives the per-layer metrics of a traced measurement. A
// layer's time is the self time of the spans the benchmark recorded around
// calls into it; where a workload cannot wrap the call (the fuzzer and the
// service call these layers internally), it is the CPU-profile time of
// samples under the layer's entry point. Shares come from the profile.
func layerMetrics(t *tally, tr *tracer, p *cpuProfile, allocBytes float64) map[string]float64 {
	vals := make(map[string]float64)
	for k, v := range t.layer {
		vals[k] = v
	}
	self := tr.selfTimes()
	timeOf := func(span, entry string) float64 {
		if v, ok := self[span]; ok {
			return v
		}
		return p.secondsUnder(entry)
	}
	vals["sim.run_s"] = timeOf("sim.run", "gpushield/internal/sim.(*GPU).Run")
	vals["compiler.analyze_s"] = timeOf("compiler.analyze", "gpushield/internal/compiler.Analyze")
	vals["driver.prepare_s"] = timeOf("driver.prepare", "gpushield/internal/driver.(*Device).PrepareLaunch")
	vals["workloads.build_s"] = self["workloads.build"]
	vals["workloads.verify_s"] = self["workloads.verify"]
	if w := vals["sim.winstrs"]; w > 0 {
		vals["sim.host_ns_per_winstr"] = vals["sim.run_s"] * 1e9 / w
	}
	shares := p.shares()
	for _, l := range []string{"sim", "memsys", "core", "workloads", "compiler", "driver", "kernelfuzz", "service", "http"} {
		vals[l+".cpu_share"] = shares[l]
	}
	vals["runtime.gc_cpu_share"] = shares["runtime.gc"]
	if t.instrs > 0 {
		vals["runtime.alloc_bytes_per_winstr"] = allocBytes / t.instrs
	}
	vals["http.rtt_ms_p50"] = percentile(tr.durations("http.request"), 0.50)
	vals["http.handler_ms_p50"] = percentile(tr.durations("http.handler"), 0.50)
	return vals
}

// overheadPct is how much lower the traced run's primary rate read than the
// untraced run's, in percent of the traced figure.
func overheadPct(plain, traced *tally) float64 {
	a, b := plain.e2e[plain.primary], traced.e2e[plain.primary]
	if a == 0 || b == 0 {
		return 0
	}
	return (a/b - 1) * 100
}

func fill(res *result, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
}

func printResult(f *os.File, res *result, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(f, "%-32s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(f, "%-32s %16d\n%-32s %16d\n", "attempted", res.Attempted, "failed", res.Failed)
	if res.tracePath != "" {
		fmt.Fprintf(f, "spans written to %s\n", res.tracePath)
	}
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // only floats and strings: cannot fail
	}
	fmt.Fprintln(f, string(b))
}

// cpuSeconds is the CPU time the process has received so far, all threads,
// user and system. The kernel leaves out time a shared host's hypervisor
// gave to other guests (steal), which wall time includes.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's peak resident set so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// median is the middle value of xs, or the mean of the two middle values
// (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p*float64(len(s))+0.999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}
