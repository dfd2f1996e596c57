package core

// The RCache hierarchy (§5.5) caches RBT entries next to the LSU. The L1
// RCache is a tiny FIFO (default 4 entries) probed in parallel with the L1
// data cache; the L2 RCache is a 64-entry fully-associative structure with
// split tag/data arrays. Entries are tagged with both the 14-bit buffer ID
// and a kernel ID so concurrent kernels can share a core's RCaches (§6.2).

// RCacheEntry is one cached bounds record. Field widths follow §5.5: 14-bit
// ID tag, 48-bit base, 32-bit size, 1-bit read-only, 12-bit kernel ID.
type RCacheEntry struct {
	ID       uint16
	KernelID uint16
	Bounds   Bounds
	valid    bool
}

// RCacheStats counts probe outcomes for one level.
type RCacheStats struct {
	Accesses uint64
	Hits     uint64
}

// HitRate returns the hit fraction (1 if never accessed).
func (s RCacheStats) HitRate() float64 {
	if s.Accesses == 0 {
		return 1
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// L1RCache is the first-in-first-out L1 RCache. Parallel tag lookup and data
// read happen in a single cycle, so an L1 hit adds no pipeline bubble.
type L1RCache struct {
	entries []RCacheEntry
	next    int // FIFO insertion cursor
	Stats   RCacheStats
}

// NewL1RCache returns an L1 RCache with n entries.
func NewL1RCache(n int) *L1RCache {
	if n <= 0 {
		n = 1
	}
	return &L1RCache{entries: make([]RCacheEntry, n)}
}

// Lookup probes the cache for (kernelID, id).
func (c *L1RCache) Lookup(kernelID, id uint16) (Bounds, bool) {
	c.Stats.Accesses++
	for i := range c.entries {
		e := &c.entries[i]
		if e.valid && e.ID == id && e.KernelID == kernelID {
			c.Stats.Hits++
			return e.Bounds, true
		}
	}
	return Bounds{}, false
}

// Insert adds an entry, evicting in FIFO order.
func (c *L1RCache) Insert(kernelID, id uint16, b Bounds) {
	c.entries[c.next] = RCacheEntry{ID: id, KernelID: kernelID, Bounds: b, valid: true}
	c.next = (c.next + 1) % len(c.entries)
}

// Flush invalidates all entries (kernel termination / context switch).
func (c *L1RCache) Flush() {
	for i := range c.entries {
		c.entries[i] = RCacheEntry{}
	}
	c.next = 0
}

// Reset returns the cache to the state NewL1RCache gives: Flush plus
// zeroed Stats.
func (c *L1RCache) Reset() {
	c.Flush()
	c.Stats = RCacheStats{}
}

// Entries returns the capacity.
func (c *L1RCache) Entries() int { return len(c.entries) }

// L2RCache is the fully-associative second-level RCache with LRU
// replacement, physically split into tag and data arrays (the tag array is
// probed first; the data array is read the following cycle on a match).
type L2RCache struct {
	entries []RCacheEntry
	lastUse []uint64
	tick    uint64
	Stats   RCacheStats
}

// NewL2RCache returns an L2 RCache with n entries.
func NewL2RCache(n int) *L2RCache {
	if n <= 0 {
		n = 1
	}
	return &L2RCache{entries: make([]RCacheEntry, n), lastUse: make([]uint64, n)}
}

// Lookup probes the cache for (kernelID, id).
func (c *L2RCache) Lookup(kernelID, id uint16) (Bounds, bool) {
	c.Stats.Accesses++
	c.tick++
	for i := range c.entries {
		e := &c.entries[i]
		if e.valid && e.ID == id && e.KernelID == kernelID {
			c.lastUse[i] = c.tick
			c.Stats.Hits++
			return e.Bounds, true
		}
	}
	return Bounds{}, false
}

// Insert adds an entry, evicting the least recently used victim.
func (c *L2RCache) Insert(kernelID, id uint16, b Bounds) {
	c.tick++
	victim := 0
	for i := range c.entries {
		if !c.entries[i].valid {
			victim = i
			break
		}
		if c.lastUse[i] < c.lastUse[victim] {
			victim = i
		}
	}
	c.entries[victim] = RCacheEntry{ID: id, KernelID: kernelID, Bounds: b, valid: true}
	c.lastUse[victim] = c.tick
}

// Flush invalidates all entries.
func (c *L2RCache) Flush() {
	for i := range c.entries {
		c.entries[i] = RCacheEntry{}
		c.lastUse[i] = 0
	}
}

// Reset returns the cache to the state NewL2RCache gives: Flush plus a
// zeroed LRU clock and Stats. A cache with a zero clock has seen no lookup
// or insert since it was built or reset, so it is already in that state.
func (c *L2RCache) Reset() {
	if c.tick == 0 {
		return
	}
	c.Flush()
	c.tick = 0
	c.Stats = RCacheStats{}
}

// Entries returns the capacity.
func (c *L2RCache) Entries() int { return len(c.entries) }
