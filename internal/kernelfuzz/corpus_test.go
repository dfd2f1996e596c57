package kernelfuzz

import "testing"

// TestCorpusReplay replays every committed reproducer in
// testdata/bugcorpus/, requiring every recorded expectation to hold. This is
// the fuzzer's permanent regression net: every bug it ever shrinks stays
// fixed.
func TestCorpusReplay(t *testing.T) {
	entries, err := LoadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatalf("no corpus entries in %s (run TestWriteSeedCorpus with GPUSHIELD_WRITE_CORPUS=1)", corpusDir)
	}
	for _, e := range entries {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			if err := Replay(e); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCorpusCoversPlantedClasses keeps the committed corpus honest: every
// planted OOB class must have at least one reproducer on disk.
func TestCorpusCoversPlantedClasses(t *testing.T) {
	entries, err := LoadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, e := range entries {
		have[e.Class] = true
	}
	for _, c := range []PlantClass{PlantIndirect, PlantOffByOne, PlantStraddle, PlantDivergent, PlantUAF} {
		if !have[c.String()] {
			t.Errorf("no corpus entry for class %s", c)
		}
	}
	if !have[PlantMalformed.String()] {
		t.Errorf("no corpus entry for class %s", PlantMalformed)
	}
}
