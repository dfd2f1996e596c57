package memsys

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// refLRU is the reference exact-LRU presence model the tag store must match:
// the per-set []cacheLine scan that Cache and TLB each carried before they
// shared tagStore, kept here verbatim as the differential oracle.
type refLRU struct {
	sets    [][]refLine
	numSets uint64
	shift   uint
	useTick uint64
	Stats   CacheStats
}

type refLine struct {
	tag     uint64
	valid   bool
	lastUse uint64
}

func newRefLRU(numSets, ways, granule int) *refLRU {
	r := &refLRU{numSets: uint64(numSets), sets: make([][]refLine, numSets)}
	for i := range r.sets {
		r.sets[i] = make([]refLine, ways)
	}
	for b := granule; b > 1; b >>= 1 {
		r.shift++
	}
	return r
}

func (r *refLRU) access(addr uint64) bool {
	r.useTick++
	r.Stats.Accesses++
	tag := addr >> r.shift
	set := r.sets[tag%r.numSets]
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lastUse = r.useTick
			r.Stats.Hits++
			return true
		}
		if !set[i].valid {
			victim = i
		} else if set[victim].valid && set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	r.Stats.Misses++
	set[victim] = refLine{tag: tag, valid: true, lastUse: r.useTick}
	return false
}

func (r *refLRU) flush() {
	for _, set := range r.sets {
		for i := range set {
			set[i] = refLine{}
		}
	}
}

// presence is what Cache and TLB share: the interface the differential test
// drives against the oracle.
type presence interface {
	Access(addr uint64) bool
	Flush()
}

type tagGeometry struct {
	name     string
	sets     int
	ways     int
	granule  int
	newStore func() (presence, *tagStore)
}

func tagGeometries() []tagGeometry {
	tlb := func(entries, ways int) func() (presence, *tagStore) {
		return func() (presence, *tagStore) {
			t := MustTLB(TLBConfig{Name: "t", Entries: entries, Ways: ways, PageBytes: 4096})
			return t, &t.tagStore
		}
	}
	cache := func(size, line, ways int) func() (presence, *tagStore) {
		return func() (presence, *tagStore) {
			c := MustCache(CacheConfig{Name: "c", SizeBytes: size, LineBytes: line, Ways: ways, HitLatency: 1})
			return c, &c.tagStore
		}
	}
	return []tagGeometry{
		{name: "tlb-64way-fa", sets: 1, ways: 64, granule: 4096, newStore: tlb(64, 64)},
		{name: "cache-4way", sets: 32, ways: 4, granule: 128, newStore: cache(16<<10, 128, 4)},
		{name: "cache-16way", sets: 16, ways: 16, granule: 128, newStore: cache(32<<10, 128, 16)},
		{name: "tlb-48x16-3sets", sets: 3, ways: 16, granule: 4096, newStore: tlb(48, 16)},
		{name: "cache-48x16-3sets", sets: 3, ways: 16, granule: 64, newStore: cache(48*64, 64, 16)},
		// The default L2: 1024 sets of 16 ways, 32 pages of 32 sets.
		{name: "cache-l2-2mb-16way", sets: 1024, ways: 16, granule: 128, newStore: cache(2<<20, 128, 16)},
		// Ways beyond the page target: one set, one 1024-slot page.
		{name: "cache-1024way-fa", sets: 1, ways: 1024, granule: 128, newStore: cache(1024*128, 128, 1024)},
	}
}

// tagStreams generates address streams that stress different halves of the
// store: random reuse across a window a few times the capacity, strided
// thrash that cycles ways+1 lines through one set (every access an LRU
// miss), same-page bursts that live on the MRU hint, and a paged stream
// that first stays inside the sets of the first tag page (pageSets of them)
// and then spreads over all sets. Extreme tags (0 and the top of the
// address space) appear in every stream; while the paged stream is
// confined, its top-of-space tag is the one that maps to set 0.
func tagStreams(g tagGeometry, pageSets, confinedOps int) []tagStream {
	gran := uint64(g.granule)
	capacity := uint64(g.sets*g.ways) * gran
	base := uint64(0x2000_0000_0000)
	setStride := uint64(g.sets) * gran
	extreme := func(rng *rand.Rand) (uint64, bool) {
		switch rng.Intn(200) {
		case 0:
			return 0, true
		case 1:
			return math.MaxUint64, true
		}
		return 0, false
	}
	var thrashI, burstLeft, pagedI uint64
	var burstPage uint64
	top := ^uint64(0)
	if g.sets&(g.sets-1) == 0 {
		top &^= setStride - 1 // set bits clear: set 0
	}
	return []tagStream{
		{"random", func(rng *rand.Rand) uint64 {
			if a, ok := extreme(rng); ok {
				return a
			}
			return base + uint64(rng.Int63n(int64(3*capacity)))
		}},
		{"thrash", func(rng *rand.Rand) uint64 {
			if a, ok := extreme(rng); ok {
				return a
			}
			thrashI++
			set := (thrashI / uint64(g.ways+1) / 64) % uint64(g.sets)
			return base + set*gran + (thrashI%uint64(g.ways+1))*setStride
		}},
		{"bursts", func(rng *rand.Rand) uint64 {
			if a, ok := extreme(rng); ok {
				return a
			}
			if burstLeft == 0 {
				burstLeft = 1 + uint64(rng.Intn(32))
				burstPage = uint64(rng.Intn(4 * g.sets * g.ways))
			}
			burstLeft--
			return base + burstPage*gran + uint64(rng.Intn(g.granule))
		}},
		{"paged", func(rng *rand.Rand) uint64 {
			pagedI++
			if pagedI > uint64(confinedOps) {
				if a, ok := extreme(rng); ok {
					return a
				}
				return base + uint64(rng.Int63n(int64(3*capacity)))
			}
			switch rng.Intn(200) {
			case 0:
				return 0
			case 1:
				return top
			}
			set := uint64(rng.Intn(min(pageSets, g.sets)))
			return base + uint64(rng.Intn(3*g.ways))*setStride + set*gran + uint64(rng.Intn(g.granule))
		}},
	}
}

type tagStream struct {
	name string
	next func(*rand.Rand) uint64
}

// TestTagStoreMatchesReferenceLRU drives Cache and TLB and the reference scan
// with identical address streams and requires identical hit/miss on every
// access and identical Stats throughout. It also compares the stores way by
// way — also right after Flush — so residency matches and the victim is the
// very way the reference evicts (the last invalid way, else the least
// recently used), not merely an equivalent one. Stores of at most
// fullCheckSlots ways are compared whole after every access; larger ones
// compare the accessed set after every access and the whole store every
// few accesses, keeping the per-access cost the same. Flush must leave
// unmaterialized pages unmaterialized. The paged stream must materialize
// exactly one page while it stays inside it, flushes there with the other
// pages still unmaterialized, and must have materialized every page once it
// has spread.
func TestTagStoreMatchesReferenceLRU(t *testing.T) {
	const ops = 20000
	const confinedOps = ops / 2
	const fullCheckSlots = 256
	for gi, g := range tagGeometries() {
		_, probe := g.newStore()
		pageSets := int(probe.pageMask) + 1
		fullEvery := max(1, g.sets*g.ways/fullCheckSlots)
		for si, s := range tagStreams(g, pageSets, confinedOps) {
			t.Run(g.name+"/"+s.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(gi*10 + si + 1)))
				store, ts := g.newStore()
				ref := newRefLRU(g.sets, g.ways, g.granule)
				for i := 0; i < ops; i++ {
					addr := s.next(rng)
					if got, want := store.Access(addr), ref.access(addr); got != want {
						t.Fatalf("op %d: Access(%#x) = %v, reference %v", i, addr, got, want)
					}
					if ts.Stats != ref.Stats {
						t.Fatalf("op %d: stats %+v, reference %+v", i, ts.Stats, ref.Stats)
					}
					set := int((addr >> ref.shift) % ref.numSets)
					if w, ok := sameSet(ts, ref, set); !ok {
						t.Fatalf("op %d: accessed set %d way %d differs: %s", i, set, w, wayDiff(ts, ref, set, w))
					}
					if i%fullEvery == fullEvery-1 {
						if set, w, ok := sameWays(ts, ref); !ok {
							t.Fatalf("op %d: set %d way %d differs: %s", i, set, w, wayDiff(ts, ref, set, w))
						}
					}
					confinedEnd := s.name == "paged" && i == confinedOps-1
					if confinedEnd {
						if n := ts.materialized(); n != 1 {
							t.Fatalf("op %d: %d tag pages materialized inside one page's sets, want 1", i, n)
						}
					}
					if rng.Intn(3000) == 0 || confinedEnd {
						before := ts.materialized()
						store.Flush()
						ref.flush()
						if n := ts.materialized(); n != before {
							t.Fatalf("op %d: Flush changed materialized pages %d -> %d", i, before, n)
						}
						if set, w, ok := sameWays(ts, ref); !ok {
							t.Fatalf("op %d: set %d way %d differs after Flush: %s", i, set, w, wayDiff(ts, ref, set, w))
						}
					}
				}
				if set, w, ok := sameWays(ts, ref); !ok {
					t.Fatalf("end: set %d way %d differs: %s", set, w, wayDiff(ts, ref, set, w))
				}
				if n := ts.materialized(); s.name == "paged" && n != len(ts.pages) {
					t.Fatalf("paged stream materialized %d of %d pages after spreading", n, len(ts.pages))
				}
				if ref.Stats.Hits == 0 || ref.Stats.Misses == 0 {
					t.Fatalf("stream exercised only one outcome: %+v", ref.Stats)
				}
			})
		}
	}
}

// way returns the tag and tick held by one way of the store. A way of an
// unmaterialized page reads as invalid (tick 0).
func (s *tagStore) way(set, w int) (tag, lastUse uint64) {
	pg := s.pages[set>>s.pageBits]
	if pg == nil {
		return 0, 0
	}
	i := s.row(uint64(set)&s.pageMask) + w
	return pg[i], pg[i+s.ways]
}

// materialized returns the number of tag pages allocated so far.
func (s *tagStore) materialized() int {
	n := 0
	for _, pg := range s.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

// sameSet reports whether every way of one set of ts holds what the same
// way of ref holds, returning the first mismatching way.
func sameSet(ts *tagStore, ref *refLRU, set int) (way int, ok bool) {
	for w, l := range ref.sets[set] {
		tag, use := ts.way(set, w)
		if valid := use != 0; valid != l.valid || valid && (tag != l.tag || use != l.lastUse) {
			return w, false
		}
	}
	return 0, true
}

// sameWays reports whether every way of ts holds what the same way of ref
// holds, returning the first mismatch.
func sameWays(ts *tagStore, ref *refLRU) (set, way int, ok bool) {
	for set := range ref.sets {
		if w, ok := sameSet(ts, ref, set); !ok {
			return set, w, false
		}
	}
	return 0, 0, true
}

func wayDiff(ts *tagStore, ref *refLRU, set, w int) string {
	tag, use := ts.way(set, w)
	return fmt.Sprintf("tag %#x lastUse %d, reference %+v", tag, use, ref.sets[set][w])
}

// defaultL2 is the simulator's default shared L2 geometry.
var defaultL2 = CacheConfig{Name: "L2", SizeBytes: 2 << 20, LineBytes: 128, Ways: 16, HitLatency: 90}

// TestNewCacheL2ConstructionIsSmall checks that building the default 2 MB
// L2 costs its page table, not its 256 KB of tags and ticks.
func TestNewCacheL2ConstructionIsSmall(t *testing.T) {
	const runs, budget = 100, 8 << 10
	keep := make([]*Cache, runs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = MustCache(defaultL2)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= budget {
		t.Fatalf("NewCache(default L2) allocates %d B, want < %d", per, budget)
	}
	if n := keep[0].materialized(); n != 0 {
		t.Fatalf("fresh L2 has %d tag pages materialized, want 0", n)
	}
}

// TestTagPagesMaterializeOnTouch checks that a burst of accesses inside one
// 4 KB span materializes exactly one tag page, in the default L2 (32 pages
// of 32 sets, one set per 128 B line) and in the single-page L1D and TLB.
func TestTagPagesMaterializeOnTouch(t *testing.T) {
	for _, tc := range []struct {
		name  string
		store func() (presence, *tagStore)
		pages int
	}{
		{"L2", func() (presence, *tagStore) { c := MustCache(defaultL2); return c, &c.tagStore }, 32},
		{"L1D", func() (presence, *tagStore) {
			c := MustCache(CacheConfig{Name: "L1D", SizeBytes: 16 << 10, LineBytes: 128, Ways: 4, HitLatency: 28})
			return c, &c.tagStore
		}, 1},
		{"L1TLB", func() (presence, *tagStore) {
			tl := MustTLB(TLBConfig{Name: "L1TLB", Entries: 64, Ways: 64, PageBytes: 4096})
			return tl, &tl.tagStore
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, ts := tc.store()
			if len(ts.pages) != tc.pages {
				t.Fatalf("%d tag pages, want %d", len(ts.pages), tc.pages)
			}
			rng := rand.New(rand.NewSource(1))
			base := uint64(0x2000_0000_0000) + 7<<12
			for i := 0; i < 1000; i++ {
				store.Access(base + uint64(rng.Intn(4096)))
			}
			if n := ts.materialized(); n != 1 {
				t.Fatalf("burst inside one 4 KB span materialized %d tag pages, want 1", n)
			}
		})
	}
}
