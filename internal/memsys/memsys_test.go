package memsys

import (
	"testing"
	"testing/quick"
)

func newTestCache() *Cache {
	return MustCache(CacheConfig{
		Name: "test", SizeBytes: 1024, LineBytes: 64, Ways: 4, HitLatency: 10,
	})
}

func TestCacheMissThenHit(t *testing.T) {
	c := newTestCache()
	if c.Access(0x1000) {
		t.Fatalf("cold access must miss")
	}
	if !c.Access(0x1000) {
		t.Fatalf("second access must hit")
	}
	if !c.Access(0x103F) {
		t.Fatalf("same line must hit")
	}
	if c.Access(0x1040) {
		t.Fatalf("next line must miss")
	}
	if c.Stats.Accesses != 4 || c.Stats.Hits != 2 || c.Stats.Misses != 2 {
		t.Fatalf("stats wrong: %+v", c.Stats)
	}
}

func TestCacheLRUReplacement(t *testing.T) {
	c := newTestCache() // 4 sets of 4 ways
	// Fill one set with 4 conflicting lines (stride = sets*line = 256).
	for i := uint64(0); i < 4; i++ {
		c.Access(i * 256)
	}
	// Touch line 0 to make line 1 (at 256) the LRU victim.
	c.Access(0)
	// A fifth conflicting line must evict line 1. Hits allocate nothing, so
	// checking the survivors first leaves line 1's fate to the last access.
	c.Access(4 * 256)
	if !c.Access(0) {
		t.Fatalf("recently used line evicted")
	}
	if !c.Access(4 * 256) {
		t.Fatalf("new line not resident")
	}
	if c.Access(256) {
		t.Fatalf("LRU line should have been evicted")
	}
}

func TestCacheFlush(t *testing.T) {
	c := newTestCache()
	c.Access(0x40)
	c.Flush()
	if c.Access(0x40) {
		t.Fatalf("flush must invalidate")
	}
}

func TestCacheFullyAssociative(t *testing.T) {
	c := MustCache(CacheConfig{Name: "fa", SizeBytes: 512, LineBytes: 64, Ways: 8, HitLatency: 1})
	// 8 lines with wildly different set bits all fit.
	for i := uint64(0); i < 8; i++ {
		c.Access(i * 4096)
	}
	for i := uint64(0); i < 8; i++ {
		if !c.Access(i * 4096) {
			t.Fatalf("line %d missing from fully associative cache", i)
		}
	}
}

func TestCacheBadGeometryErrors(t *testing.T) {
	bad := []CacheConfig{
		{SizeBytes: 0, LineBytes: 64, Ways: 4},
		{SizeBytes: 1024, LineBytes: 0, Ways: 4},
		{SizeBytes: 1024, LineBytes: 96, Ways: 4},
		{SizeBytes: 1024, LineBytes: 64, Ways: 0},
		{SizeBytes: 1024, LineBytes: 64, Ways: 5},
	}
	for _, cfg := range bad {
		if _, err := NewCache(cfg); err == nil {
			t.Fatalf("expected error for %+v", cfg)
		}
	}
	if _, err := NewTLB(TLBConfig{Entries: 4, Ways: 3, PageBytes: 4096}); err == nil {
		t.Fatalf("expected TLB geometry error")
	}
	if _, err := NewTLB(TLBConfig{Entries: 4, Ways: 4, PageBytes: 1000}); err == nil {
		t.Fatalf("expected TLB page-size error")
	}
}

func TestMustCachePanicsOnBadPreset(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	MustCache(CacheConfig{SizeBytes: 0, LineBytes: 64, Ways: 4})
}

func TestHitRateProperty(t *testing.T) {
	// Re-accessing any previously touched address must hit: simulate a
	// random trace twice and require hit count >= trace length on replay.
	f := func(seed []uint8) bool {
		if len(seed) == 0 {
			return true
		}
		c := MustCache(CacheConfig{Name: "p", SizeBytes: 1 << 14, LineBytes: 64, Ways: 16, HitLatency: 1})
		addrs := make([]uint64, 0, len(seed))
		for _, s := range seed {
			addrs = append(addrs, uint64(s)*64)
		}
		for _, a := range addrs {
			c.Access(a)
		}
		// Working set is at most 256 lines = 16KB = exactly capacity.
		for _, a := range addrs {
			if !c.Access(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTLBBasics(t *testing.T) {
	tlb := MustTLB(TLBConfig{Name: "tlb", Entries: 4, Ways: 4, PageBytes: 4096})
	if tlb.Access(0x1000) {
		t.Fatalf("cold TLB access must miss")
	}
	if !tlb.Access(0x1FFF) {
		t.Fatalf("same page must hit")
	}
	// Fill beyond capacity; the first entry is the LRU victim.
	for i := uint64(1); i <= 4; i++ {
		tlb.Access(0x1000 + i*0x1000)
	}
	if tlb.Access(0x1000) {
		t.Fatalf("evicted translation must miss")
	}
	tlb.Flush()
	if tlb.Access(0x2000) {
		t.Fatalf("flush must invalidate translations")
	}
}

func TestDRAMRowBufferLocality(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig())
	// First access opens the row.
	t0 := d.Access(0, 0)
	// Same row, later: must be a row hit and cheaper.
	t1 := d.Access(t0, 64) - t0
	miss := t0 - 0
	if t1 >= miss {
		t.Fatalf("row hit (%d) not cheaper than row miss (%d)", t1, miss)
	}
	if d.Stats.RowHits != 1 || d.Stats.RowMisses != 1 {
		t.Fatalf("stats wrong: %+v", d.Stats)
	}
}

func TestDRAMBankConflictSerializes(t *testing.T) {
	d := NewDRAM(DefaultDRAMConfig())
	cfg := d.Config()
	rowBytes := uint64(cfg.RowBytes)
	banks := uint64(cfg.BanksPerChannel)
	// Two different rows on the same channel and bank conflict.
	a := uint64(0)
	b := rowBytes * banks * uint64(cfg.Channels) // same bank, different row
	d0 := d.Access(0, a)
	d1 := d.Access(0, b)
	if d1 <= d0 {
		t.Fatalf("conflicting bank access should finish later: %d vs %d", d1, d0)
	}
	// Different channels proceed independently.
	d2 := d.Access(0, uint64(cfg.InterleaveBytes)) // next channel
	if d2 > d0 {
		t.Fatalf("independent channel delayed: %d vs %d", d2, d0)
	}
}

func TestBackingRoundTrip(t *testing.T) {
	m := NewBacking()
	m.WriteUint64(0x1234, 0xDEADBEEFCAFEF00D)
	if got := m.ReadUint64(0x1234); got != 0xDEADBEEFCAFEF00D {
		t.Fatalf("u64 round trip: %#x", got)
	}
	m.WriteUint32(0x8, 42)
	if got := m.ReadUint32(0x8); got != 42 {
		t.Fatalf("u32 round trip: %d", got)
	}
	// Cross-chunk write.
	addr := uint64(16*chunkBytes - 3)
	m.WriteBytes(addr, []byte{1, 2, 3, 4, 5, 6})
	got := m.ReadBytes(addr, 6)
	for i, b := range []byte{1, 2, 3, 4, 5, 6} {
		if got[i] != b {
			t.Fatalf("cross-chunk byte %d: %d", i, got[i])
		}
	}
}

func TestBackingZeroInitialized(t *testing.T) {
	m := NewBacking()
	if m.ReadUint64(0xABCDEF) != 0 {
		t.Fatalf("untouched memory must read zero")
	}
}

func TestBackingQuickRoundTrip(t *testing.T) {
	m := NewBacking()
	f := func(addr uint32, v uint64, n uint8) bool {
		size := int(n%4) + 1 // 1..4 bytes
		switch size {
		case 3:
			size = 4
		}
		if size != 1 && size != 2 && size != 4 {
			size = 8
		}
		m.WriteUint(uint64(addr), v, size)
		got := m.ReadUint(uint64(addr), size)
		mask := ^uint64(0)
		if size < 8 {
			mask = (1 << (8 * uint(size))) - 1
		}
		return got == v&mask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCacheStatsHitRate(t *testing.T) {
	var s CacheStats
	if s.HitRate() != 1 {
		t.Fatalf("empty stats hit rate must be 1")
	}
	s = CacheStats{Accesses: 4, Hits: 3, Misses: 1}
	if s.HitRate() != 0.75 {
		t.Fatalf("hit rate = %f", s.HitRate())
	}
}
