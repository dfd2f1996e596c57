package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestQuick runs every workload briefly, untraced and traced, through the
// same checks as a full run, at the default seed (where outputs are compared
// with the recorded digests) and at the held-out seed.
func TestQuick(t *testing.T) {
	ref, err := loadReference("")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"corpus", "bigmem", "fuzz", "serve"} {
		for _, c := range []struct {
			seed   int64
			traced bool
		}{{defaultSeed, false}, {defaultSeed, true}, {heldOutSeed, false}} {
			e := &env{seed: c.seed, seconds: time.Second, quick: true, ref: ref}
			res, err := run(name, e, c.traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s seed %d traced %v: %v", name, c.seed, c.traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s seed %d traced %v: correct %v, %d of %d failed: %v",
					name, c.seed, c.traced, res.Correct, res.Failed, res.Attempted, res.problems)
			}
			defs := endToEnd
			if c.traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				if v := res.Metrics[d.name].Value; !c.traced && !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, v)
				}
			}
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the metrics
// the benchmark prints, and only the workloads it runs.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, err := newWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
}
