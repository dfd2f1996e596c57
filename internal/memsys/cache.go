// Package memsys provides the memory-system building blocks used by the
// cycle-level GPU model: set-associative caches, TLBs, an FR-FCFS DRAM
// model, and the byte-addressable backing store that holds simulated device
// memory contents.
package memsys

import "fmt"

// CacheConfig describes a set-associative cache.
type CacheConfig struct {
	Name       string
	SizeBytes  int // total data capacity
	LineBytes  int // line (block) size
	Ways       int // associativity; Ways == SizeBytes/LineBytes makes it fully associative
	HitLatency int // cycles
}

// CacheStats accumulates access counts.
type CacheStats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
}

// HitRate returns hits/accesses, or 1 when the cache was never accessed.
func (s CacheStats) HitRate() float64 {
	if s.Accesses == 0 {
		return 1
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Cache is a set-associative LRU cache model. It tracks presence only — data
// contents live in the backing store — which is the standard structure for
// timing simulation. Its Stats field, promoted from the tag store it shares
// with TLB, counts accesses, hits and misses.
type Cache struct {
	cfg CacheConfig
	tagStore
}

// Validate reports whether the geometry describes a constructible cache.
func (cfg CacheConfig) Validate() error {
	if cfg.LineBytes <= 0 || cfg.SizeBytes <= 0 || cfg.Ways <= 0 {
		return fmt.Errorf("memsys: bad cache config %+v", cfg)
	}
	if cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return fmt.Errorf("memsys: %s: line size %d is not a power of two", cfg.Name, cfg.LineBytes)
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	if lines == 0 || lines%cfg.Ways != 0 {
		return fmt.Errorf("memsys: %s: %d lines not divisible by %d ways", cfg.Name, lines, cfg.Ways)
	}
	return nil
}

// NewCache builds a cache from cfg, rejecting malformed geometries with an
// error so a bad runtime configuration degrades into a typed failure instead
// of crashing the process.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	numSets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	return &Cache{cfg: cfg, tagStore: newTagStore(numSets, cfg.Ways, cfg.LineBytes)}, nil
}

// MustCache is NewCache for the built-in simulator presets, whose geometries
// are known good; it panics on error and must not be fed runtime input.
func MustCache(cfg CacheConfig) *Cache {
	c, err := NewCache(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 { return addr &^ uint64(c.cfg.LineBytes-1) }

// Access looks up addr and updates LRU state, allocating the line on a miss
// (allocate-on-miss for both reads and writes). It reports whether the
// access hit.
func (c *Cache) Access(addr uint64) bool { return c.access(addr) }

// Flush invalidates all lines (kernel termination / context switch).
func (c *Cache) Flush() { c.flush() }

// Reset returns the cache to the state NewCache gives: all lines invalid,
// the LRU clock and Stats zeroed. Flush keeps both.
func (c *Cache) Reset() { c.reset() }

// HitLatency returns the configured hit latency in cycles.
func (c *Cache) HitLatency() int { return c.cfg.HitLatency }
