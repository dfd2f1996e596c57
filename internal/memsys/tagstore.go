package memsys

import "math/bits"

// tagPageSlots is the target number of way-slots in one tag page: 4 KB of
// tags plus 4 KB of ticks, plus one MRU word per set. A page holds a
// power-of-two number of whole sets and at least one, so a set wider than
// the target gets a page of its own.
const tagPageSlots = 512

// tagStore is the exact-LRU presence store behind both Cache and TLB. A
// simulator builds one per cache and TLB for every GPU, and a short launch
// touches a small fraction of a 2 MB L2, so the state is paged: sets are
// grouped into fixed-size pages that materialize on the first access to any
// of their sets. Construction allocates only the page table, and the
// garbage collector sees only the pages a launch actually touched. A page is
// one flat, pointer-free []uint64: an MRU word per set, then per set its
// tags followed by its ticks, so a set's tags are contiguous words for the
// lookup scan. Small stores (L1D, the TLBs) are single-page stores on the
// same code path.
//
// A way is valid exactly when its tick (lastUse) is non-zero: every access
// stamps the way it touches with a fresh, strictly increasing tick, so valid
// ways carry distinct ticks >= 1 and every tag value (0 included) is
// representable. An unmaterialized page therefore reads as all-invalid.
// Replacement is classic exact LRU: on a miss the victim is the last invalid
// way of the set, or else the least recently used one. Because invalid ways
// hold tick 0, both halves of that rule are one "last minimum" scan over
// the ticks.
//
// The MRU word remembers, per set, the way of the latest hit or fill. It is
// only a hint checked before the full scan: a stale hint fails the tag
// comparison and falls through, so it never changes which way hits or which
// is evicted.
type tagStore struct {
	pages    [][]uint64 // page table; nil until the page's first access
	ways     int
	numSets  uint64
	setMask  uint64 // numSets-1, used when pow2
	pow2     bool   // numSets is a power of two
	pageBits uint   // log2 of the sets per page
	pageMask uint64 // sets per page - 1
	hdr      int    // MRU words at the head of a page: sets per page
	stride   int    // words per set in a page: 2*ways
	shift    uint   // log2 of the line or page size
	useTick  uint64
	Stats    CacheStats
}

// newTagStore builds an empty store; granule, the line or page size, is a
// power of two (the configs' Validate guarantees it).
func newTagStore(numSets, ways, granule int) tagStore {
	pageSets := 1
	if per := tagPageSlots / ways; per > 1 {
		pageSets = 1 << (bits.Len(uint(per)) - 1)
	}
	pageSets = min(pageSets, 1<<bits.Len(uint(numSets-1)))
	return tagStore{
		pages:    make([][]uint64, (numSets+pageSets-1)/pageSets),
		ways:     ways,
		numSets:  uint64(numSets),
		setMask:  uint64(numSets - 1),
		pow2:     numSets&(numSets-1) == 0,
		pageBits: uint(bits.TrailingZeros(uint(pageSets))),
		pageMask: uint64(pageSets - 1),
		hdr:      pageSets,
		stride:   2 * ways,
		shift:    uint(bits.TrailingZeros(uint(granule))),
	}
}

// set returns the set index of tag.
func (s *tagStore) set(tag uint64) uint64 {
	if s.pow2 {
		return tag & s.setMask
	}
	return tag % s.numSets
}

// row returns the offset of a set's first tag in its page; its ticks follow
// at row+ways. The page's MRU words come first, one per set of a full page.
func (s *tagStore) row(local uint64) int { return s.hdr + int(local)*s.stride }

// materialize allocates the page holding set on its first touch. A short
// last page holds only the sets that exist. It stays out of line so the
// lookup keeps its registers.
//
//go:noinline
func (s *tagStore) materialize(set uint64) []uint64 {
	first := set &^ s.pageMask
	sets := min(uint64(s.hdr), s.numSets-first)
	pg := make([]uint64, s.row(sets))
	s.pages[set>>s.pageBits] = pg
	return pg
}

// access looks up the line or page holding addr, counts the access, and
// updates LRU state, allocating on a miss. It reports whether it hit.
func (s *tagStore) access(addr uint64) bool {
	tick := s.useTick + 1
	s.useTick = tick
	s.Stats.Accesses++
	// Both shift counts are below 64; the & 63 lets the compiler drop its
	// guard for wider shifts.
	tag := addr >> (s.shift & 63)
	set := s.set(tag)
	pg := s.pages[set>>(s.pageBits&63)]
	local := set & s.pageMask
	if local >= uint64(len(pg)) { // only a nil page is this short: first touch
		pg = s.materialize(set)
	}
	row, ways := s.row(local), s.ways
	if i := row + int(pg[local]); pg[i] == tag && pg[i+ways] != 0 {
		pg[i+ways] = tick
		s.Stats.Hits++
		return true
	}
	// Valid ways hold distinct tags, so the scan order cannot change which
	// way hits. It runs from the last way down because fills take the last
	// invalid way first: a partly filled set keeps its lines at the top.
	tags, use := pg[row:row+ways], pg[row+ways:row+2*ways]
	for w := len(tags) - 1; w >= 0; w-- {
		if tags[w] == tag && use[w] != 0 {
			use[w] = tick
			pg[local] = uint64(w)
			s.Stats.Hits++
			return true
		}
	}
	s.Stats.Misses++
	victim, oldest := 0, use[0]
	for w, u := range use {
		if u <= oldest {
			victim, oldest = w, u
		}
	}
	tags[victim] = tag
	use[victim] = tick
	pg[local] = uint64(victim)
	return false
}

// flush invalidates every way of the materialized pages; pages never touched
// are already all-invalid and stay unmaterialized. The LRU clock and
// statistics keep running.
func (s *tagStore) flush() {
	for _, pg := range s.pages {
		for r := s.hdr + s.ways; r < len(pg); r += s.stride {
			clear(pg[r : r+s.ways])
		}
	}
}

// reset returns the store to its just-built state: every way invalid, the
// LRU clock and statistics zeroed. Materialized pages are kept, zeroed
// whole (tags and MRU hints included), so a reused store reads exactly as
// a fresh one and re-touching a page allocates nothing.
func (s *tagStore) reset() {
	if s.useTick == 0 {
		return // no access since the last reset: every page is still zero
	}
	for _, pg := range s.pages {
		clear(pg)
	}
	s.useTick = 0
	s.Stats = CacheStats{}
}
