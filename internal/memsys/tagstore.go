package memsys

import "math/bits"

// tagStore is the exact-LRU presence store behind both Cache and TLB. Its
// state is flat, pointer-free arrays indexed set*ways+way: a simulator
// builds one per cache and TLB for every GPU, so construction must be a few
// allocations the garbage collector never scans, and a set's tags are
// contiguous words for the lookup scan.
//
// A way is valid exactly when its lastUse is non-zero: every access stamps
// the way it touches with a fresh, strictly increasing tick, so valid ways
// carry distinct ticks >= 1 and every tag value (0 included) is
// representable. Replacement is classic exact LRU: on a miss the
// victim is the last invalid way of the set, or else the least recently
// used one. Because invalid ways hold tick 0, both halves of that rule are
// one "last minimum" scan over lastUse.
//
// mru remembers, per set, the way of the latest hit or fill. It is only a
// hint checked before the full scan: a stale hint fails the tag comparison
// and falls through, so it never changes which way hits or which is evicted.
type tagStore struct {
	tags    []uint64 // set*ways+way: tag of the resident line or page
	lastUse []uint64 // set*ways+way: tick of the last access, 0 = invalid
	mru     []uint32 // per set: way of the latest hit or fill
	ways    int
	numSets uint64
	setMask uint64 // numSets-1, used when pow2
	pow2    bool   // numSets is a power of two
	shift   uint   // log2 of the line or page size
	useTick uint64
	Stats   CacheStats
}

// newTagStore builds an empty store; granule, the line or page size, is a
// power of two (the configs' Validate guarantees it).
func newTagStore(numSets, ways, granule int) tagStore {
	return tagStore{
		tags:    make([]uint64, numSets*ways),
		lastUse: make([]uint64, numSets*ways),
		mru:     make([]uint32, numSets),
		ways:    ways,
		numSets: uint64(numSets),
		setMask: uint64(numSets - 1),
		pow2:    numSets&(numSets-1) == 0,
		shift:   uint(bits.TrailingZeros(uint(granule))),
	}
}

// set returns the set index of tag.
func (s *tagStore) set(tag uint64) uint64 {
	if s.pow2 {
		return tag & s.setMask
	}
	return tag % s.numSets
}

// access looks up the line or page holding addr, counts the access, and
// updates LRU state, allocating on a miss. It reports whether it hit.
func (s *tagStore) access(addr uint64) bool {
	s.useTick++
	s.Stats.Accesses++
	tag := addr >> s.shift
	set := s.set(tag)
	base := int(set) * s.ways
	if i := base + int(s.mru[set]); s.tags[i] == tag && s.lastUse[i] != 0 {
		s.lastUse[i] = s.useTick
		s.Stats.Hits++
		return true
	}
	if w := s.find(base, tag); w >= 0 {
		s.lastUse[base+w] = s.useTick
		s.mru[set] = uint32(w)
		s.Stats.Hits++
		return true
	}
	s.Stats.Misses++
	use := s.lastUse[base : base+s.ways]
	victim, oldest := 0, use[0]
	for w, u := range use {
		if u <= oldest {
			victim, oldest = w, u
		}
	}
	s.tags[base+victim] = tag
	use[victim] = s.useTick
	s.mru[set] = uint32(victim)
	return false
}

// find returns the way of the set starting at base that holds tag, or -1.
func (s *tagStore) find(base int, tag uint64) int {
	for w, t := range s.tags[base : base+s.ways] {
		if t == tag && s.lastUse[base+w] != 0 {
			return w
		}
	}
	return -1
}

// flush invalidates every way. The LRU clock and statistics keep running.
func (s *tagStore) flush() { clear(s.lastUse) }
