package driver

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// pageOracle is the reference page map the interval map must match: one
// map entry per mapped 4 KB page, filled from each allocation's documented
// footprint rather than from the driver's own bookkeeping.
type pageOracle map[uint64]bool

func (o pageOracle) mapBytes(base, size uint64) {
	if size == 0 {
		return
	}
	for p := base / PageBytes; p <= (base+size-1)/PageBytes; p++ {
		o[p] = true
	}
}

func (o pageOracle) mappedRange(lo, hi uint64) bool {
	for p := lo / PageBytes; p <= hi/PageBytes; p++ {
		if !o[p] {
			return false
		}
	}
	return true
}

// TestPageMapMatchesOracle drives random allocation sequences — device
// buffers whose power-of-two alignment leaves gaps or packs them adjacent,
// SVM buffers sharing and spilling across 2 MB pages, heap limits re-set
// over the same region, and local regions including zero-sized ones — and
// checks Mapped and MappedRange against the oracle at every allocation's
// edges, across the gaps between them, and at random points.
func TestPageMapMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dev := NewDevice(seed)
		oracle := pageOracle{}
		var edges []uint64
		note := func(base, size uint64) {
			edges = append(edges, base, base+size)
		}
		for op := 0; op < 60; op++ {
			switch rng.Intn(4) {
			case 0:
				size := uint64(1 + rng.Intn(1<<uint(4+rng.Intn(16))))
				b := dev.Malloc("b", size, false)
				oracle.mapBytes(b.Base, b.Padded)
				note(b.Base, b.Padded)
			case 1:
				size := uint64(1 + rng.Intn(3*SVMPageBytes/(1+rng.Intn(64))))
				b := dev.MallocManaged("m", size)
				first := b.Base / SVMPageBytes * SVMPageBytes
				last := (b.Base + b.Size - 1) / SVMPageBytes * SVMPageBytes
				oracle.mapBytes(first, last+SVMPageBytes-first)
				note(b.Base, b.Size)
				note(first, last+SVMPageBytes-first)
			case 2:
				size := uint64(rng.Intn(12 << 20))
				dev.SetHeapLimit(size)
				if size == 0 {
					size = 8 << 20
				}
				oracle.mapBytes(heapBase, size)
				note(heapBase, size)
			case 3:
				vars := make([]LocalRegion, 1+rng.Intn(3))
				for i := range vars {
					if rng.Intn(3) > 0 {
						vars[i].PerThread = 4 * rng.Intn(64)
						vars[i].Threads = rng.Intn(2048)
					}
				}
				for _, v := range dev.AllocLocal(vars) {
					oracle.mapBytes(v.Base, v.Size)
					note(v.Base, v.Size)
				}
			}
			for i := 0; i < 50; i++ {
				e := edges[rng.Intn(len(edges))]
				a := e + uint64(rng.Intn(2*PageBytes)) - PageBytes
				if got, want := dev.Mapped(a), oracle[a/PageBytes]; got != want {
					t.Fatalf("seed %d op %d: Mapped(%#x) = %v, oracle %v", seed, op, a, got, want)
				}
				// Ranges from one edge to a nearby point, spanning page
				// boundaries and the gaps between allocations.
				lo := a
				hi := lo + uint64(rng.Intn(64*PageBytes))
				if rng.Intn(2) == 0 {
					lo, hi = e-uint64(rng.Intn(4*PageBytes)), e+uint64(rng.Intn(4*PageBytes))
				}
				if got, want := dev.MappedRange(lo, hi), oracle.mappedRange(lo, hi); got != want {
					t.Fatalf("seed %d op %d: MappedRange(%#x, %#x) = %v, oracle %v", seed, op, lo, hi, got, want)
				}
			}
		}
		// The interval map must be canonical: sorted, disjoint, and merged
		// wherever two spans touch.
		for i := 1; i < len(dev.mapped.spans); i++ {
			if prev, s := dev.mapped.spans[i-1], dev.mapped.spans[i]; prev.hi >= s.lo {
				t.Fatalf("seed %d: spans %v and %v overlap or touch", seed, prev, s)
			}
		}
	}
}

// TestPageMapMergesAdjacent pins the merge rules directly: touching inserts
// collapse into one span whichever side they arrive on, overlapping inserts
// are absorbed, an insert bridging two spans joins them, and empty ranges
// map nothing.
func TestPageMapMergesAdjacent(t *testing.T) {
	var m pageMap
	m.insert(10, 19)
	m.insert(20, 29) // touches on the right
	m.insert(5, 9)   // touches on the left
	m.insert(12, 14) // inside
	m.insert(40, 49)
	m.insert(7, 6) // empty
	if want := []pageSpan{{5, 30}, {40, 50}}; !slices.Equal(m.spans, want) {
		t.Fatalf("spans %v, want %v", m.spans, want)
	}
	m.insert(30, 39) // bridges both
	if want := []pageSpan{{5, 50}}; !slices.Equal(m.spans, want) {
		t.Fatalf("spans %v, want %v", m.spans, want)
	}
	m.insert(0, 0)
	if want := []pageSpan{{0, 1}, {5, 50}}; !slices.Equal(m.spans, want) {
		t.Fatalf("spans %v, want %v", m.spans, want)
	}
	for _, c := range []struct {
		lo, hi uint64
		want   bool
	}{{0, 0, true}, {0, 1, false}, {5, 49, true}, {4, 5, false}, {49, 50, false}, {20, 20, true}, {1, 4, false}} {
		if got := m.contains(c.lo, c.hi); got != c.want {
			t.Errorf("contains(%d, %d) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
}

// TestPageMapConcurrentLookups queries one device from several goroutines
// at once, each walking its own buffer so the shared last-hit hint keeps
// changing hands. Run under -race.
func TestPageMapConcurrentLookups(t *testing.T) {
	dev := NewDevice(1)
	var bufs []*Buffer
	for i := 0; i < 4; i++ {
		bufs = append(bufs, dev.Malloc("b", 1<<16, false))
		// Its 128 KB alignment leaves an unmapped hole after each buffer,
		// so every buffer ends its own span.
		dev.Malloc("filler", 1<<17, false)
	}
	var wg sync.WaitGroup
	for _, b := range bufs {
		wg.Add(1)
		go func(b *Buffer) {
			defer wg.Done()
			for i := uint64(0); i < 2000; i++ {
				a := b.Base + i*32%b.Size
				if !dev.Mapped(a) || !dev.MappedRange(a, a+31) || dev.MappedRange(a, b.Base+b.Padded+PageBytes) {
					t.Errorf("lookup at %#x in %#x+%d answered wrongly", a, b.Base, b.Size)
					return
				}
			}
		}(b)
	}
	wg.Wait()
}

// BenchmarkMappedRange measures the LSU's page-fault check: one op is a
// MappedRange over one 128-byte transaction window, cycling through windows
// in four buffers, the heap, and a local region, so consecutive queries
// alternate between spans the way interleaved warps do.
func BenchmarkMappedRange(b *testing.B) {
	dev := NewDevice(1)
	var windows []uint64
	for _, size := range []uint64{1 << 12, 1 << 16, 3 << 20, 1 << 10} {
		buf := dev.Malloc("b", size, false)
		windows = append(windows, buf.Base, buf.Base+buf.Size-128)
	}
	windows = append(windows, dev.Heap().Base+4096)
	local := dev.AllocLocal([]LocalRegion{{PerThread: 64, Threads: 1024}})
	windows = append(windows, local[0].Base+128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := windows[i%len(windows)]
		if !dev.MappedRange(lo, lo+127) {
			b.Fatalf("window at %#x unmapped", lo)
		}
	}
}
