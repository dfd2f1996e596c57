package experiments

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gpushield/internal/driver"
	"gpushield/internal/resultstore"
	"gpushield/internal/sim"
)

// The memo cache and the result store are two layers of the same contract —
// equal keys, bit-identical results — with different lifetimes: the memo
// dies with the process, the store survives it. These tests pin how the
// layers compose.

func statsJSON(t *testing.T, st *sim.LaunchStats) string {
	t.Helper()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestWarmStoreColdMemo: a fresh process (new engine, empty memo) over a
// populated store serves results from disk without re-simulating — a
// persistent failure included, which comes back with its error text.
func TestWarmStoreColdMemo(t *testing.T) {
	dir := t.TempDir()
	store, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b := multiLaunchBench("test-warm-store-cold-memo")
	bad := flakyBench("test-warm-store-failure", 1<<30)
	opts := RunOpts{Mode: driver.ModeShield}

	e1 := NewEngine(1)
	e1.SetRetryPolicy(0, time.Millisecond)
	e1.SetStore(store)
	ref, err := e1.RunBenchmark(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s := e1.Stats(); s.UniqueRuns != 1 || s.StoreHits != 0 {
		t.Fatalf("cold first run misaccounted: %+v", s)
	}
	_, badErr := e1.RunBenchmark(context.Background(), bad, opts)
	if badErr == nil {
		t.Fatal("expected the always-failing benchmark to fail")
	}

	// "New process": fresh engine, fresh store handle over the same dir.
	store2, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e2 := NewEngine(1)
	e2.SetStore(store2)
	warm, err := e2.RunBenchmark(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if statsJSON(t, warm) != statsJSON(t, ref) {
		t.Fatal("store-served stats diverge from the original simulation")
	}
	if s := e2.Stats(); s.UniqueRuns != 0 || s.StoreHits != 1 || s.CacheHits != 0 {
		t.Fatalf("warm run misaccounted: %+v", s)
	}
	if ss := store2.Stats(); ss.Hits != 1 || ss.Puts != 0 {
		t.Fatalf("store stats %+v, want 1 hit, 0 puts", ss)
	}

	_, err = e2.RunBenchmark(context.Background(), bad, opts)
	if err == nil || err.Error() != badErr.Error() {
		t.Fatalf("store-served failure = %v, want %v", err, badErr)
	}
	if s := e2.Stats(); s.UniqueRuns != 0 || s.StoreHits != 2 {
		t.Fatalf("stored failure re-simulated or misaccounted: %+v", s)
	}
}

// TestColdStoreWarmMemo: a memo hit never consults (or even hashes for) the
// store — the no-hot-path-regression guarantee. The store stays empty.
func TestColdStoreWarmMemo(t *testing.T) {
	b := multiLaunchBench("test-cold-store-warm-memo")
	opts := RunOpts{Mode: driver.ModeShield}

	e := NewEngine(1)
	ref, err := e.RunBenchmark(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e.SetStore(store)
	warm, err := e.RunBenchmark(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if statsJSON(t, warm) != statsJSON(t, ref) {
		t.Fatal("memo hit returned different stats")
	}
	if s := e.Stats(); s.CacheHits != 1 || s.StoreHits != 0 || s.UniqueRuns != 1 {
		t.Fatalf("memo-hit run misaccounted: %+v", s)
	}
	if ss := store.Stats(); ss.Hits != 0 || ss.Misses != 0 || ss.Puts != 0 {
		t.Fatalf("memo hit touched the store: %+v", ss)
	}
	if n, err := store.Len(); err != nil || n != 0 {
		t.Fatalf("store grew to %d entries on a memo hit (err %v)", n, err)
	}
}

// TestVersionBumpInvalidatesStaleEntries: an entry stored under an older
// sim.Version is unreachable — its hash no longer matches any key the
// engine computes — so the config re-simulates instead of serving stale
// semantics.
func TestVersionBumpInvalidatesStaleEntries(t *testing.T) {
	store, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b := multiLaunchBench("test-version-bump")
	opts := RunOpts{Mode: driver.ModeShield}

	// Plant a poisoned result under the previous sim version for the same
	// logical configuration.
	stale := RunKey(b.Name, opts)
	stale.SimVersion = sim.Version - 1
	sentinel := &sim.LaunchStats{Kernel: b.Name, FinishCycle: 0xBAD}
	if err := store.Put(stale, sentinel, nil, 0); err != nil {
		t.Fatal(err)
	}

	e := NewEngine(1)
	e.SetStore(store)
	st, err := e.RunBenchmark(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.FinishCycle == 0xBAD {
		t.Fatal("engine served a stale entry from a previous sim version")
	}
	if s := e.Stats(); s.UniqueRuns != 1 || s.StoreHits != 0 {
		t.Fatalf("version-bumped config did not re-simulate: %+v", s)
	}
	// Both generations now coexist; only the current one is reachable.
	if ent, ok := store.Get(RunKey(b.Name, opts)); !ok || ent.Stats.FinishCycle == 0xBAD {
		t.Fatalf("current-version entry missing or stale after re-simulation (ok=%v)", ok)
	}
}

// TestCorruptStoreEntryQuarantinedAndHealed: flipping bytes in a stored
// object must not poison a warm sweep — the entry is quarantined, the
// config re-simulates to the identical result, and the store heals.
func TestCorruptStoreEntryQuarantinedAndHealed(t *testing.T) {
	dir := t.TempDir()
	store, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	b := multiLaunchBench("test-corrupt-heal")
	opts := RunOpts{Mode: driver.ModeShield}

	e1 := NewEngine(1)
	e1.SetStore(store)
	ref, err := e1.RunBenchmark(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}

	hash := RunKey(b.Name, opts).Hash()
	obj := filepath.Join(dir, "objects", hash[:2], hash+".json")
	if err := os.WriteFile(obj, []byte(`{"v":1,"key":{"bench":"`), 0o644); err != nil {
		t.Fatal(err)
	}

	store2, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e2 := NewEngine(1)
	e2.SetStore(store2)
	healed, err := e2.RunBenchmark(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if statsJSON(t, healed) != statsJSON(t, ref) {
		t.Fatal("re-simulation after corruption diverged from the original result")
	}
	if s := e2.Stats(); s.UniqueRuns != 1 || s.StoreHits != 0 {
		t.Fatalf("corrupt entry was not re-simulated: %+v", s)
	}
	if ss := store2.Stats(); ss.Quarantined != 1 || ss.Puts != 1 {
		t.Fatalf("store stats %+v, want 1 quarantined + 1 healing put", ss)
	}
	if q := store2.Quarantined(); len(q) != 1 {
		t.Fatalf("quarantine dir holds %d entries, want 1", len(q))
	}
	// The healed object is valid again: a third handle serves it.
	store3, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ent, ok := store3.Get(RunKey(b.Name, opts)); !ok || statsJSON(t, ent.Stats) != statsJSON(t, ref) {
		t.Fatalf("healed entry unreadable or wrong (ok=%v)", ok)
	}
}
