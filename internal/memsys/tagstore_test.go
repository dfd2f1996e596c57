package memsys

import (
	"math"
	"math/rand"
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
	}
}

// tagStreams generates address streams that stress different halves of the
// store: random reuse across a window a few times the capacity, strided
// thrash that cycles ways+1 lines through one set (every access an LRU
// miss), and same-page bursts that live on the MRU hint. Extreme tags (0 and
// the top of the address space) appear in every stream.
func tagStreams(g tagGeometry) []tagStream {
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
	var thrashI, burstLeft uint64
	var burstPage uint64
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
// recently used), not merely an equivalent one.
func TestTagStoreMatchesReferenceLRU(t *testing.T) {
	const ops = 20000
	for gi, g := range tagGeometries() {
		for si, s := range tagStreams(g) {
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
					if set, w, ok := sameWays(ts, ref); !ok {
						t.Fatalf("op %d: set %d way %d: tag %#x lastUse %d, reference %+v",
							i, set, w, ts.tags[set*g.ways+w], ts.lastUse[set*g.ways+w], ref.sets[set][w])
					}
					if rng.Intn(3000) == 0 {
						store.Flush()
						ref.flush()
						if set, w, ok := sameWays(ts, ref); !ok {
							t.Fatalf("op %d: set %d way %d still valid after Flush", i, set, w)
						}
					}
				}
				if ref.Stats.Hits == 0 || ref.Stats.Misses == 0 {
					t.Fatalf("stream exercised only one outcome: %+v", ref.Stats)
				}
			})
		}
	}
}

// sameWays reports whether every way of ts holds what the same way of ref
// holds, returning the first mismatch.
func sameWays(ts *tagStore, ref *refLRU) (set, way int, ok bool) {
	for set, lines := range ref.sets {
		for w, l := range lines {
			i := set*ts.ways + w
			if valid := ts.lastUse[i] != 0; valid != l.valid || valid && (ts.tags[i] != l.tag || ts.lastUse[i] != l.lastUse) {
				return set, w, false
			}
		}
	}
	return 0, 0, true
}
