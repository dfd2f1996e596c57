package memsys

import (
	"math/rand"
	"testing"
)

// Layer benchmarks for the memory-hierarchy timing model: one op is one
// Access. "hit" streams revisit a working set well inside the structure's
// reach in short same-page or same-line bursts, the way coalesced warps do;
// "thrash" streams cycle ways+1 addresses through one set, so under exact
// LRU every access misses and pays the full scan and victim choice.

// accessStream returns n addresses: bursts of 1-8 accesses to one granule
// picked from a working set of `set` granules.
func accessStream(n, set, granule int) []uint64 {
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 0, n)
	for len(addrs) < n {
		g := uint64(0x2000_0000_0000) + uint64(rng.Intn(set)*granule)
		for burst := 1 + rng.Intn(8); burst > 0 && len(addrs) < n; burst-- {
			addrs = append(addrs, g+uint64(rng.Intn(granule)))
		}
	}
	return addrs
}

// thrashStream returns ways+1 addresses that all map to set 0.
func thrashStream(sets, ways, granule int) []uint64 {
	addrs := make([]uint64, ways+1)
	for i := range addrs {
		addrs[i] = uint64(0x2000_0000_0000) + uint64(i*sets*granule)
	}
	return addrs
}

func benchAccess(b *testing.B, access func(uint64) bool, addrs []uint64) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		access(addrs[i%len(addrs)])
	}
}

// BenchmarkTLBAccess measures the default 64-entry fully associative L1 TLB.
func BenchmarkTLBAccess(b *testing.B) {
	cfg := TLBConfig{Name: "L1TLB", Entries: 64, Ways: 64, PageBytes: 4096}
	b.Run("hit", func(b *testing.B) {
		benchAccess(b, MustTLB(cfg).Access, accessStream(1<<16, 32, cfg.PageBytes))
	})
	b.Run("thrash", func(b *testing.B) {
		benchAccess(b, MustTLB(cfg).Access, thrashStream(1, cfg.Ways, cfg.PageBytes))
	})
}

// BenchmarkCacheAccess measures the default 16 KB 4-way L1D and the 2 MB
// 16-way L2.
func BenchmarkCacheAccess(b *testing.B) {
	for _, cfg := range []CacheConfig{
		{Name: "L1D", SizeBytes: 16 << 10, LineBytes: 128, Ways: 4, HitLatency: 28},
		{Name: "L2", SizeBytes: 2 << 20, LineBytes: 128, Ways: 16, HitLatency: 90},
	} {
		lines := cfg.SizeBytes / cfg.LineBytes
		b.Run(cfg.Name+"/hit", func(b *testing.B) {
			benchAccess(b, MustCache(cfg).Access, accessStream(1<<16, lines/2, cfg.LineBytes))
		})
		b.Run(cfg.Name+"/thrash", func(b *testing.B) {
			benchAccess(b, MustCache(cfg).Access, thrashStream(lines/cfg.Ways, cfg.Ways, cfg.LineBytes))
		})
	}
}
