package experiments

import (
	"context"
	"fmt"
	"strings"

	"gpushield/internal/kernelfuzz"
	"gpushield/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "fuzz",
		Title: "Differential kernel fuzz: compiler vs BCU vs ground truth",
		Run:   runFuzz,
	})
}

// Fuzz options, set from cmd/experiments flags via SetFuzzOptions.
var fuzzOpts = kernelfuzz.Options{Seed: 1, Count: 500, ShrinkBudget: 300}

// SetFuzzOptions overrides the fuzz experiment's stream seed, case count,
// shrink budget, and corpus output directory. Zero values keep defaults;
// an empty corpusDir disables reproducer persistence.
func SetFuzzOptions(seed int64, count, shrinkBudget int, corpusDir string) {
	if seed != 0 {
		fuzzOpts.Seed = seed
	}
	if count > 0 {
		fuzzOpts.Count = count
	}
	if shrinkBudget > 0 {
		fuzzOpts.ShrinkBudget = shrinkBudget
	}
	fuzzOpts.CorpusDir = corpusDir
}

// runFuzz generates a deterministic stream of random kernels with planted
// OOB faults across five pattern classes, checks the static analyzer, the
// runtime BCU (both shield modes), and generator ground truth against each
// other, and shrinks any disagreement into a reproducer. The report is
// byte-identical for a given seed at any -parallel width.
// Any disagreement fails the experiment (non-zero exit), so running this
// under CI is a soundness gate, not just a statistic.
func runFuzz(ctx context.Context) (*Result, error) {
	opts := fuzzOpts
	opts.Parallel = Parallelism()
	if Quick && opts.Count > 100 {
		opts.Count = 100
	}
	rep, err := kernelfuzz.Run(ctx, opts)
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:     "fuzz",
		Title:  "Differential kernel fuzz: compiler vs BCU vs ground truth",
		Tables: []*stats.Table{rep.Table()},
		Notes:  rep.Notes(),
	}
	if n := len(rep.Findings); n > 0 {
		var b strings.Builder
		fmt.Fprintf(&b, "%d oracle disagreements (seed %d):", n, opts.Seed)
		for _, f := range rep.Findings {
			b.WriteString("\n  ")
			b.WriteString(f.String())
		}
		for _, sc := range rep.Shrunk {
			fmt.Fprintf(&b, "\n  shrunk case %d (%s): %d -> %d instrs", sc.Case, sc.Kind, sc.InstrBefore, sc.InstrAfter)
		}
		return res, fmt.Errorf("%s", b.String())
	}
	return res, nil
}
