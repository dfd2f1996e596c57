// Package resultstore is the durable, content-addressed layer under the
// experiment engine's memo cache: every completed benchmark run is stored
// on disk under a canonical hash of everything that determines its result —
// benchmark, architecture, protection mode, BCU configuration, problem
// scale, driver seed, and the simulator's semantics version. Two runs with
// equal hashes produce bit-identical LaunchStats, so a stored entry can be
// served in place of re-simulating, across processes, machines, and time.
//
// The store is the durable form of the engine's in-process memo cache
// (same key, hashed and written one atomic file per run) and the one way a
// sweep survives being killed: a rerun over the same store serves every
// completed run from disk. It is the substrate for incremental and resumed
// sweeps — only configs whose hash is absent re-simulate — and for the
// fleet coordinator/worker mode (internal/fleet), where any number of
// workers may Put the same entry concurrently and idempotently.
//
// Durability discipline:
//
//   - writes are atomic: entry bytes go to a unique temp file in the final
//     directory, are fsync'd, and are renamed into place — a crash at any
//     instruction leaves either no entry or a complete entry, never a torn
//     one
//   - Put is idempotent: the hash is the identity, so double delivery (a
//     worker re-executing a shard whose first owner died after writing) is
//     a no-op, not a conflict
//   - reads are tolerant: an entry that fails to parse, carries the wrong
//     version, or disagrees with its own hash is quarantined (moved aside,
//     never deleted) and reported as a miss, so one corrupt file costs one
//     re-simulation instead of the sweep
package resultstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gpushield/internal/core"
	"gpushield/internal/driver"
	"gpushield/internal/sim"
)

// Key identifies a benchmark run up to simulation determinism. It is the
// exported, versioned mirror of the engine's memo key plus SimVersion: the
// canonical JSON encoding of this struct (fields in declaration order) is
// what gets hashed, so field changes here are a store-format change — gate
// them behind a sim.Version bump or a new entryVersion.
type Key struct {
	Bench      string         `json:"bench"`
	Arch       string         `json:"arch,omitempty"`
	Mode       driver.Mode    `json:"mode"`
	BCU        core.BCUConfig `json:"bcu"`
	Scale      int            `json:"scale"`
	Seed       int64          `json:"seed"`
	TrackPages bool           `json:"track_pages,omitempty"`
	SimVersion int            `json:"sim_version"`
}

// Hash returns the canonical run hash: hex SHA-256 over the key's canonical
// JSON encoding. Equal keys hash equal; any field change — including a
// sim.Version bump — produces a fresh hash, which is how stale entries are
// invalidated (they are simply never addressed again).
func (k Key) Hash() string {
	data, err := json.Marshal(k)
	if err != nil {
		// A Key is plain data; Marshal cannot fail on it. Guard anyway so a
		// future field type cannot silently alias every run to one hash.
		panic(fmt.Sprintf("resultstore: key not marshalable: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// entryVersion is the schema version stamped on every stored entry. Bump it
// when the entry encoding changes incompatibly; old entries then quarantine
// on read instead of mis-serving.
const entryVersion = 1

// Entry is one stored run, carrying either stats (success) or an error
// string (deterministic failure), plus the compute duration for the
// engine's serial-equivalent accounting. Entries are also the fleet's wire format: workers stream them
// back to the coordinator one JSON line at a time.
type Entry struct {
	V     int              `json:"v"`
	Key   Key              `json:"key"`
	Err   string           `json:"err,omitempty"`
	DurNS int64            `json:"dur_ns"`
	Stats *sim.LaunchStats `json:"stats,omitempty"`
}

// NewEntry builds a well-formed entry for a completed run.
func NewEntry(key Key, st *sim.LaunchStats, runErr error, dur time.Duration) Entry {
	e := Entry{V: entryVersion, Key: key, DurNS: dur.Nanoseconds(), Stats: st}
	if runErr != nil {
		e.Err = runErr.Error()
	}
	return e
}

// Valid reports whether the entry is well-formed enough to serve: current
// version, a named benchmark, and either stats or an error (a "success"
// with neither is unservable).
func (e *Entry) Valid() bool {
	return e.V == entryVersion && e.Key.Bench != "" && (e.Stats != nil || e.Err != "")
}

// Encode renders the entry as one JSON line (newline-terminated), the
// fleet stream format.
func (e Entry) Encode() ([]byte, error) {
	data, err := json.Marshal(e)
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DecodeEntry parses one entry (file contents or one stream line). It
// returns an error for malformed bytes and for well-formed JSON that fails
// Valid — callers treat both as corruption, never as a result.
func DecodeEntry(data []byte) (*Entry, error) {
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, err
	}
	if !e.Valid() {
		return nil, fmt.Errorf("resultstore: invalid entry (v=%d bench=%q)", e.V, e.Key.Bench)
	}
	return &e, nil
}

// Stats is the store's cumulative accounting.
type Stats struct {
	Hits        int `json:"hits"`        // Get served a stored entry
	Misses      int `json:"misses"`      // Get found nothing addressable
	Puts        int `json:"puts"`        // entries written (new or healed)
	Dups        int `json:"dups"`        // Puts that found a valid entry already present
	Quarantined int `json:"quarantined"` // corrupt entries moved aside
}

// Store is a content-addressed result store rooted at one directory:
//
//	root/objects/<hh>/<hash>.json   one entry per run hash (hh = hash[:2])
//	root/quarantine/<hash>.N.json   corrupt entries moved aside on read
//
// Safe for concurrent use by multiple goroutines and multiple processes
// (atomic rename is the commit point; O_EXCL-free idempotent writes).
type Store struct {
	mu    sync.Mutex
	root  string
	stats Stats
	// quarantined collects the paths moved aside this process, for the
	// end-of-sweep report.
	quarantined []string
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	for _, sub := range []string{"objects", "quarantine"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, err
		}
	}
	return &Store{root: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.root }

// entryPath returns the object path for a hash, sharded by the first two
// hex characters so huge campaigns do not pile every entry into one
// directory.
func (s *Store) entryPath(hash string) string {
	return filepath.Join(s.root, "objects", hash[:2], hash+".json")
}

// Get looks a key up by its (precomputed) hash. Corrupt or mismatched
// entries are quarantined and reported as a miss; the caller just
// re-simulates. Use GetHash when the caller already computed the hash —
// the engine computes it exactly once per config.
func (s *Store) Get(key Key) (*Entry, bool) { return s.GetHash(key, key.Hash()) }

// GetHash is Get with the hash computed by the caller.
func (s *Store) GetHash(key Key, hash string) (*Entry, bool) {
	path := s.entryPath(hash)
	data, err := os.ReadFile(path)
	if err != nil {
		s.count(func(st *Stats) { st.Misses++ })
		return nil, false
	}
	ent, derr := DecodeEntry(data)
	if derr != nil || ent.Key != key {
		// Unparseable, wrong version, or a key that does not match the
		// address it was filed under (bitrot, tampering, or a renamed
		// file): never serve it, never delete it, set it aside.
		s.quarantine(path)
		s.count(func(st *Stats) { st.Misses++ })
		return nil, false
	}
	s.count(func(st *Stats) { st.Hits++ })
	return ent, true
}

// Put stores a completed run. Idempotent: if a valid entry already exists
// under the hash it is left untouched (same hash ⇒ same bytes by the
// determinism contract); a corrupt existing entry is healed by an atomic
// overwrite. Returns the first error encountered; a failed Put loses
// durability for this run only, never the in-memory result.
func (s *Store) Put(key Key, st *sim.LaunchStats, runErr error, dur time.Duration) error {
	return s.PutHash(key, key.Hash(), st, runErr, dur)
}

// PutHash is Put with the hash computed by the caller.
func (s *Store) PutHash(key Key, hash string, st *sim.LaunchStats, runErr error, dur time.Duration) error {
	return s.PutEntry(hash, NewEntry(key, st, runErr, dur))
}

// PutEntry stores an already-built entry under hash (the fleet coordinator
// receives entries off the wire and files them verbatim). The entry's key
// must hash to hash; a mismatch is rejected so a corrupted stream cannot
// poison an unrelated address.
func (s *Store) PutEntry(hash string, ent Entry) error {
	if !ent.Valid() {
		return fmt.Errorf("resultstore: refusing to store invalid entry for %q", ent.Key.Bench)
	}
	if got := ent.Key.Hash(); got != hash {
		return fmt.Errorf("resultstore: entry key hashes to %.12s, filed under %.12s", got, hash)
	}
	path := s.entryPath(hash)
	if data, err := os.ReadFile(path); err == nil {
		if _, derr := DecodeEntry(data); derr == nil {
			s.count(func(st *Stats) { st.Dups++ })
			return nil // idempotent: a valid entry is already the truth
		}
		// Corrupt entry in place: fall through and heal it atomically.
	}
	data, err := json.Marshal(ent)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	// Atomic commit: unique temp file in the destination directory (unique
	// so concurrent writers of the same hash never clobber each other's
	// temp), fsync, rename. Rename is the commit point; a crash before it
	// leaves only a temp file that a future Open ignores.
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-"+hash[:8]+"-*")
	if err != nil {
		return err
	}
	tmpPath := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return err
	}
	if err := os.Rename(tmpPath, path); err != nil {
		os.Remove(tmpPath)
		return err
	}
	s.count(func(st *Stats) { st.Puts++ })
	return nil
}

// quarantine moves a corrupt entry aside, never deleting evidence. The
// destination name keeps the original base name plus a .N counter so
// repeated corruption of the same hash keeps every specimen.
func (s *Store) quarantine(path string) {
	base := filepath.Base(path)
	for n := 0; ; n++ {
		dst := filepath.Join(s.root, "quarantine", fmt.Sprintf("%s.%d", base, n))
		if _, err := os.Stat(dst); err == nil {
			continue
		}
		if err := os.Rename(path, dst); err != nil {
			// Another process may have quarantined it first; either way it
			// is gone from the addressable path, which is all Get needs.
			return
		}
		s.mu.Lock()
		s.stats.Quarantined++
		s.quarantined = append(s.quarantined, dst)
		s.mu.Unlock()
		return
	}
}

// Stats snapshots the store accounting.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Quarantined returns the paths of entries this process moved aside, for
// the end-of-sweep report (quarantine is never silent).
func (s *Store) Quarantined() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.quarantined...)
}

// Len walks the store and counts addressable entries (diagnostics and
// smoke tests; not on any hot path).
func (s *Store) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(filepath.Join(s.root, "objects"), func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" {
			n++
		}
		return nil
	})
	return n, err
}

func (s *Store) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}
