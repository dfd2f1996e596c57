package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"gpushield/internal/sim"
)

//go:embed reference.json
var referenceJSON []byte

// reference holds output digests recorded at Seed: one per (workload,
// benchmark, mode) launch and one per fuzz batch, in batch order.
type reference struct {
	Seed int64             `json:"seed"`
	Runs map[string]string `json:"runs"`
	Fuzz []string          `json:"fuzz"`
}

// loadReference decodes the embedded reference, or the file at path when
// path is set (recording merges into that file).
func loadReference(path string) (*reference, error) {
	data := referenceJSON
	if path != "" {
		var err error
		if data, err = os.ReadFile(path); err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
	}
	r := &reference{}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	if r.Runs == nil {
		r.Runs = map[string]string{}
	}
	return r, nil
}

func (r *reference) save(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("encode reference: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write reference: %w", err)
	}
	return nil
}

// checkRun compares a launch's digest with the reference at the reference
// seed, or records it. It returns a problem description, or "".
func (e *env) checkRun(key, got string) string {
	if e.seed != e.ref.Seed {
		return ""
	}
	if e.record {
		e.ref.Runs[key] = got
		return ""
	}
	want, ok := e.ref.Runs[key]
	switch {
	case !ok:
		return fmt.Sprintf("%s: no reference digest", key)
	case want != got:
		return fmt.Sprintf("%s: stats digest %s, reference %s", key, got, want)
	}
	return ""
}

// checkFuzz does the same for fuzz batch i. Batches past the recorded ones
// are checked by their findings alone.
func (e *env) checkFuzz(i int, got string) string {
	if e.seed != e.ref.Seed {
		return ""
	}
	if e.record {
		if i == len(e.ref.Fuzz) {
			e.ref.Fuzz = append(e.ref.Fuzz, got)
		}
		return ""
	}
	if i < len(e.ref.Fuzz) && e.ref.Fuzz[i] != got {
		return fmt.Sprintf("fuzz batch %d: report digest %s, reference %s", i, got, e.ref.Fuzz[i])
	}
	return ""
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}

// statsDigest covers every counter of a launch, so any change to simulated
// behaviour shows.
func statsDigest(st *sim.LaunchStats) string {
	return digest(fmt.Sprintf("%s %s cyc=%d wi=%d ti=%d mi=%d tx=%d sh=%d l1=%d/%d l2=%d/%d tlb=%d/%d chk=%d t3=%d skip=%d rc=%d/%d rbt=%d stall=%d viol=%d abort=%v",
		st.Kernel, st.Mode, st.Cycles(), st.WarpInstrs, st.ThreadInstrs, st.MemInstrs, st.Transactions, st.SharedAccs,
		st.L1DHits, st.L1DAccesses, st.L2Hits, st.L2Accesses, st.L1TLBMisses, st.L2TLBMisses,
		st.Checks, st.Type3Checks, st.Skipped, st.RL1Hits, st.RL2Hits, st.RBTFetches, st.BCUStalls,
		len(st.Violations), st.Aborted))
}
