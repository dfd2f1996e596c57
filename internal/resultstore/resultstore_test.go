package resultstore

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gpushield/internal/driver"
	"gpushield/internal/sim"
)

func testKey(bench string) Key {
	return Key{Bench: bench, Mode: driver.ModeShield, Scale: 1, Seed: 12345, SimVersion: sim.Version}
}

func testStats(cycles uint64) *sim.LaunchStats {
	return &sim.LaunchStats{Kernel: "k", FinishCycle: cycles, WarpInstrs: cycles * 2}
}

// TestHashCanonical pins the hash contract: equal keys hash equal, any
// field change — including the sim version — produces a different hash.
func TestHashCanonical(t *testing.T) {
	k := testKey("bench-a")
	if k.Hash() != testKey("bench-a").Hash() {
		t.Fatal("equal keys hashed differently")
	}
	if len(k.Hash()) != 64 {
		t.Fatalf("hash length %d, want 64 hex chars", len(k.Hash()))
	}
	variants := []Key{
		{Bench: "bench-b", Mode: k.Mode, Scale: k.Scale, Seed: k.Seed, SimVersion: k.SimVersion},
		{Bench: k.Bench, Mode: driver.ModeOff, Scale: k.Scale, Seed: k.Seed, SimVersion: k.SimVersion},
		{Bench: k.Bench, Mode: k.Mode, Scale: 2, Seed: k.Seed, SimVersion: k.SimVersion},
		{Bench: k.Bench, Mode: k.Mode, Scale: k.Scale, Seed: 0, SimVersion: k.SimVersion},
		{Bench: k.Bench, Mode: k.Mode, Scale: k.Scale, Seed: k.Seed, SimVersion: k.SimVersion + 1},
		{Bench: k.Bench, Arch: "intel", Mode: k.Mode, Scale: k.Scale, Seed: k.Seed, SimVersion: k.SimVersion},
		{Bench: k.Bench, Mode: k.Mode, Scale: k.Scale, Seed: k.Seed, TrackPages: true, SimVersion: k.SimVersion},
	}
	seen := map[string]bool{k.Hash(): true}
	for i, v := range variants {
		h := v.Hash()
		if seen[h] {
			t.Fatalf("variant %d collided with an earlier key", i)
		}
		seen[h] = true
	}
	var bcu Key = k
	bcu.BCU.L1Entries = 32
	if bcu.Hash() == k.Hash() {
		t.Fatal("BCU config change did not change the hash")
	}
}

// TestPutGetRoundTrip: a stored run comes back bit-identical, including the
// error form.
func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("round-trip")
	want := testStats(42)
	if err := s.Put(k, want, nil, 7*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	ent, ok := s.Get(k)
	if !ok {
		t.Fatal("stored entry missed")
	}
	g1, _ := json.Marshal(want)
	g2, _ := json.Marshal(ent.Stats)
	if string(g1) != string(g2) {
		t.Fatalf("stats diverged through the store:\n%s\n%s", g1, g2)
	}
	if ent.DurNS != (7 * time.Millisecond).Nanoseconds() {
		t.Fatalf("dur = %d", ent.DurNS)
	}

	ek := testKey("round-trip-err")
	if err := s.Put(ek, nil, os.ErrDeadlineExceeded, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	eent, ok := s.Get(ek)
	if !ok || eent.Err == "" || eent.Stats != nil {
		t.Fatalf("error entry came back as %+v", eent)
	}
}

// TestPutIdempotent: double delivery of the same run is a no-op, not a
// conflict — the fleet's duplicate-delivery scenario at the store layer.
func TestPutIdempotent(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("idempotent")
	for i := 0; i < 3; i++ {
		if err := s.Put(k, testStats(9), nil, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Puts != 1 || st.Dups != 2 {
		t.Fatalf("stats = %+v, want 1 put / 2 dups", st)
	}
	if n, _ := s.Len(); n != 1 {
		t.Fatalf("store holds %d entries, want 1", n)
	}
}

// TestCorruptEntryQuarantined: a corrupt entry is moved aside (not deleted,
// not served), the Get reports a miss, and a subsequent Put heals the
// address — the sweep completes with one extra simulation.
func TestCorruptEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("corrupt")
	if err := s.Put(k, testStats(5), nil, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	path := s.entryPath(k.Hash())
	if err := os.WriteFile(path, []byte(`{"v":1,"key":{"bench":"corrupt"`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("corrupt entry was served")
	}
	q := s.Quarantined()
	if len(q) != 1 || !strings.Contains(q[0], filepath.Join("quarantine", filepath.Base(path))) {
		t.Fatalf("quarantined = %v", q)
	}
	if data, err := os.ReadFile(q[0]); err != nil || len(data) == 0 {
		t.Fatalf("quarantine lost the evidence: %v", err)
	}
	// Heal and re-serve.
	if err := s.Put(k, testStats(5), nil, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); !ok {
		t.Fatal("healed entry missed")
	}
	st := s.Stats()
	if st.Quarantined != 1 {
		t.Fatalf("stats = %+v, want 1 quarantined", st)
	}
}

// TestKeyMismatchQuarantined: an entry filed under the wrong address (a
// renamed or tampered file) must never serve.
func TestKeyMismatchQuarantined(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("mismatch-a")
	other := testKey("mismatch-b")
	if err := s.Put(other, testStats(5), nil, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// File b's entry under a's address.
	data, err := os.ReadFile(s.entryPath(other.Hash()))
	if err != nil {
		t.Fatal(err)
	}
	aPath := s.entryPath(k.Hash())
	if err := os.MkdirAll(filepath.Dir(aPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(aPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("mismatched entry was served")
	}
	if s.Stats().Quarantined != 1 {
		t.Fatal("mismatched entry not quarantined")
	}
}

// TestVersionBumpMisses: entries stored under an older sim version are
// simply never addressed (different hash), so a version bump re-simulates
// instead of serving stale results.
func TestVersionBumpMisses(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	old := testKey("versioned")
	old.SimVersion = sim.Version - 1
	if err := s.Put(old, testStats(5), nil, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	cur := testKey("versioned")
	if _, ok := s.Get(cur); ok {
		t.Fatal("stale sim-version entry was served")
	}
	if _, ok := s.Get(old); !ok {
		t.Fatal("old entry should still be addressable under its own hash")
	}
}

// TestPutEntryRejectsMismatchedHash: a corrupted wire record cannot poison
// an unrelated address.
func TestPutEntryRejectsMismatchedHash(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("wire")
	ent := NewEntry(k, testStats(1), nil, time.Millisecond)
	if err := s.PutEntry(testKey("other").Hash(), ent); err == nil {
		t.Fatal("mismatched hash accepted")
	}
	if err := s.PutEntry(k.Hash(), Entry{V: entryVersion, Key: k}); err == nil {
		t.Fatal("entry with neither stats nor error accepted")
	}
}

// TestEntryCodec: the wire line round-trips, and DecodeEntry rejects the
// torn/invalid shapes the coordinator sees from dying workers.
func TestEntryCodec(t *testing.T) {
	ent := NewEntry(testKey("codec"), testStats(3), nil, time.Millisecond)
	line, err := ent.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if line[len(line)-1] != '\n' {
		t.Fatal("encoded line not newline-terminated")
	}
	back, err := DecodeEntry(line[:len(line)-1])
	if err != nil || back.Key != ent.Key {
		t.Fatalf("round trip failed: %v %+v", err, back)
	}
	for _, bad := range []string{
		string(line[:len(line)/2]),              // torn mid-record
		`{"v":99,"key":{"bench":"x"}}`,          // future version
		`{"v":1,"key":{"bench":""},"stats":{}}`, // anonymous benchmark
		`{"v":1,"key":{"bench":"x"}}`,           // success with no stats
		"not json",
	} {
		if _, err := DecodeEntry([]byte(bad)); err == nil {
			t.Fatalf("DecodeEntry accepted %q", bad)
		}
	}
}

// FuzzDecodeEntry: whatever bytes a crash, bitrot or a confused worker
// leaves in an object file or on a fleet result line, DecodeEntry must not
// panic, must admit only entries that pass Valid (the same check the fleet
// coordinator applies to every result line), and every admitted entry must
// survive Encode → DecodeEntry unchanged.
func FuzzDecodeEntry(f *testing.F) {
	ok, err := NewEntry(testKey("fuzz-ok"), testStats(42), nil, 5*time.Millisecond).Encode()
	if err != nil {
		f.Fatal(err)
	}
	failed, err := NewEntry(testKey("fuzz-err"), nil, errors.New("build: deterministic failure"), time.Millisecond).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ok)
	f.Add(failed)
	f.Add(ok[:len(ok)/2]) // torn mid-record
	f.Add([]byte(strings.Replace(string(ok), `"v":1`, `"v":99`, 1)))
	f.Add([]byte("\xff\xfe garbage \x00\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ent, err := DecodeEntry(data)
		if err != nil {
			return
		}
		if !ent.Valid() {
			t.Fatalf("DecodeEntry admitted an invalid entry: %+v", ent)
		}
		line, err := ent.Encode()
		if err != nil {
			t.Fatalf("admitted entry does not encode: %v", err)
		}
		back, err := DecodeEntry(line)
		if err != nil {
			t.Fatalf("re-encoded entry rejected: %v\n%s", err, line)
		}
		if !reflect.DeepEqual(ent, back) {
			t.Fatalf("round trip changed the entry:\n%+v\n%+v", ent, back)
		}
	})
}

// BenchmarkKeyHash pins the cost of the run hash: the engine computes it
// once per unique config (never per launch, never on memo hits), so it
// only needs to be cheap relative to one simulation — but keep it honest.
func BenchmarkKeyHash(b *testing.B) {
	k := testKey("bench-hash")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = k.Hash()
	}
}
