package kernelfuzz

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"gpushield/internal/pool"
	"gpushield/internal/stats"
)

// Options configure one fuzzing run.
type Options struct {
	Seed         int64 // stream seed; case i derives its own sub-seed
	Count        int   // number of cases
	ShrinkBudget int   // max oracle evaluations per shrunk disagreement
	Parallel     int   // worker goroutines over cases (determinism-safe)
	MaxCycles    uint64
	// CorpusDir, when non-empty, receives a shrunk reproducer JSON for
	// every disagreeing case.
	CorpusDir string
}

func (o Options) normalized() Options {
	if o.Count <= 0 {
		o.Count = 500
	}
	if o.ShrinkBudget <= 0 {
		o.ShrinkBudget = 300
	}
	if o.Parallel <= 0 {
		o.Parallel = 1
	}
	return o
}

// ClassStat aggregates one plant class over a run.
type ClassStat struct {
	Class    PlantClass
	Cases    int
	Sites    int
	Planted  int
	Findings int
}

// Report is the deterministic result of a fuzz run: identical Options in
// (including Parallel width) yield a byte-identical rendering.
type Report struct {
	Options  Options
	Classes  []ClassStat
	Findings []Finding
	// Shrunk[i] describes the reproducer written for Findings belonging to
	// case Shrunk[i].Case (one per disagreeing case).
	Shrunk []ShrunkCase
}

// ShrunkCase summarizes one minimized reproducer.
type ShrunkCase struct {
	Case        int
	Name        string
	Kind        FindKind
	InstrBefore int
	InstrAfter  int
	Saved       bool
}

// Run generates, evaluates, and (on disagreement) shrinks Count cases.
// Cases are evaluated in parallel by index with results stored positionally,
// so the report is independent of worker interleaving.
func Run(ctx context.Context, opts Options) (*Report, error) {
	opts = opts.normalized()
	oOpts := oracleOpts{MaxCycles: opts.MaxCycles}

	// One reusable machine per pool worker: a worker takes a parked one (or
	// builds it) for each case and parks it again afterwards, so at most
	// Parallel machines exist and the channel, buffered to that many, never
	// blocks a park. Which worker's machine evaluates a case cannot show in
	// its findings, because every leg resets the machine to its freshly
	// built state.
	machines := make(chan *machine, opts.Parallel)
	cases := make([]*Case, opts.Count)
	findings := make([][]Finding, opts.Count)
	err := pool.ForEachErrCtx(ctx, opts.Parallel, opts.Count, func(i int) error {
		var m *machine
		select {
		case m = <-machines:
		default:
			m = new(machine)
		}
		c := Generate(opts.Seed, i)
		cases[i] = c
		o := oOpts
		o.mach = m
		findings[i] = runCase(ctx, c, o)
		machines <- m
		return ctx.Err()
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{Options: opts}
	byClass := make(map[PlantClass]*ClassStat)
	for c := PlantClass(0); c < numPlantClasses; c++ {
		cs := &ClassStat{Class: c}
		byClass[c] = cs
	}
	for i, c := range cases {
		cs := byClass[c.Class]
		cs.Cases++
		cs.Sites += len(c.Sites)
		cs.Planted += len(c.PlantedSites)
		cs.Findings += len(findings[i])
		rep.Findings = append(rep.Findings, findings[i]...)
	}
	for c := PlantClass(0); c < numPlantClasses; c++ {
		rep.Classes = append(rep.Classes, *byClass[c])
	}

	// Shrink one reproducer per disagreeing case, sequentially (the list
	// is normally empty; determinism beats parallelism here), reusing one
	// machine across every re-run.
	oOpts.mach = new(machine)
	for i, fs := range findings {
		if len(fs) == 0 {
			continue
		}
		target := fs[0]
		small := Shrink(ctx, cases[i], target, opts.ShrinkBudget, oOpts)
		sc := ShrunkCase{
			Case: i, Kind: target.Kind,
			Name:        fmt.Sprintf("fuzz-seed%d-case%d-%s", opts.Seed, i, target.Kind),
			InstrBefore: InstrCount(cases[i]),
			InstrAfter:  InstrCount(small),
		}
		if opts.CorpusDir != "" {
			entry, err := EntryFromCase(ctx, small, sc.Name,
				fmt.Sprintf("auto-shrunk reproducer: %s", target.Detail), oOpts)
			if err == nil {
				if SaveEntry(opts.CorpusDir, entry) == nil {
					sc.Saved = true
				}
			}
		}
		rep.Shrunk = append(rep.Shrunk, sc)
	}
	return rep, nil
}

// Table renders the per-class summary.
func (r *Report) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Differential kernel fuzz: seed=%d count=%d", r.Options.Seed, r.Options.Count),
		"class", "cases", "sites", "planted", "findings")
	for _, cs := range r.Classes {
		t.AddRow(cs.Class.String(), cs.Cases, cs.Sites, cs.Planted, cs.Findings)
	}
	return t
}

// Notes renders findings and shrink results as stable text lines.
func (r *Report) Notes() []string {
	var notes []string
	total := 0
	for _, cs := range r.Classes {
		total += cs.Cases
	}
	notes = append(notes, fmt.Sprintf("%d cases, %d access sites, %d findings",
		total, r.totalSites(), len(r.Findings)))
	fs := append([]Finding(nil), r.Findings...)
	sort.SliceStable(fs, func(i, j int) bool { return fs[i].Case < fs[j].Case })
	for _, f := range fs {
		notes = append(notes, "FINDING "+f.String())
	}
	for _, sc := range r.Shrunk {
		saved := "not saved (no corpus dir)"
		if sc.Saved {
			saved = "saved to corpus"
		}
		notes = append(notes, fmt.Sprintf("SHRUNK case=%d kind=%s %d -> %d instrs, %s",
			sc.Case, sc.Kind, sc.InstrBefore, sc.InstrAfter, saved))
	}
	return notes
}

func (r *Report) totalSites() int {
	n := 0
	for _, cs := range r.Classes {
		n += cs.Sites
	}
	return n
}

// Render is the byte-stable full report (used by determinism tests and the
// smoke script's diff).
func (r *Report) Render() string {
	var b strings.Builder
	b.WriteString(r.Table().String())
	for _, n := range r.Notes() {
		b.WriteString(n)
		b.WriteByte('\n')
	}
	return b.String()
}
