package memsys

import "testing"

// TestBackingStraddleWidths exercises the chunk-straddling slow path of
// ReadUint/WriteUint for every width at every offset around a chunk
// boundary, checking against a byte-at-a-time reference.
func TestBackingStraddleWidths(t *testing.T) {
	straddles := 0
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8} {
		for delta := -8; delta <= 1; delta++ {
			m := NewBacking()
			addr := uint64(chunkBytes + delta)
			if addr/chunkBytes != (addr+uint64(n)-1)/chunkBytes {
				straddles++
			}
			v := uint64(0x1122334455667788)
			m.WriteUint(addr, v, n)

			mask := ^uint64(0)
			if n < 8 {
				mask = (1 << (8 * uint(n))) - 1
			}
			want := v & mask
			if got := m.ReadUint(addr, n); got != want {
				t.Fatalf("n=%d delta=%d: ReadUint=%#x want %#x", n, delta, got, want)
			}
			// Byte-at-a-time readback must agree (little endian).
			var ref uint64
			for i := n - 1; i >= 0; i-- {
				ref = ref<<8 | m.ReadUint(addr+uint64(i), 1)
			}
			if ref != want {
				t.Fatalf("n=%d delta=%d: byte readback=%#x want %#x", n, delta, ref, want)
			}
			// Neighbouring bytes stay untouched.
			if b := m.ReadUint(addr-1, 1); b != 0 {
				t.Fatalf("n=%d delta=%d: byte before write clobbered: %#x", n, delta, b)
			}
			if b := m.ReadUint(addr+uint64(n), 1); b != 0 {
				t.Fatalf("n=%d delta=%d: byte after write clobbered: %#x", n, delta, b)
			}
		}
	}
	if straddles == 0 {
		t.Fatal("no case crosses a chunk edge")
	}
}

// TestBackingChunkCacheCoherence interleaves accesses across chunks so the
// one-entry chunk cache is repeatedly evicted and refilled, and verifies the
// data stays coherent with the map.
func TestBackingChunkCacheCoherence(t *testing.T) {
	m := NewBacking()
	const far = uint64(5 * chunkBytes)
	m.WriteUint(0, 0xAAAA, 8)   // chunk 0 cached
	m.WriteUint(far, 0xBBBB, 8) // evicts, caches chunk 5
	m.WriteUint(8, 0xCCCC, 8)   // back to chunk 0
	if got := m.ReadUint(far, 8); got != 0xBBBB {
		t.Fatalf("far chunk: %#x", got)
	}
	if got := m.ReadUint(0, 8); got != 0xAAAA {
		t.Fatalf("chunk 0 word 0: %#x", got)
	}
	if got := m.ReadUint(8, 8); got != 0xCCCC {
		t.Fatalf("chunk 0 word 1: %#x", got)
	}
}

// TestBackingScalarPathDoesNotAllocate locks the PR 3 zero-allocation
// property of the scalar fast paths, including the chunk-straddling case
// (which must use a stack buffer, not ReadBytes).
func TestBackingScalarPathDoesNotAllocate(t *testing.T) {
	m := NewBacking()
	aligned := uint64(128)
	straddle := uint64(chunkBytes - 3)
	// Touch both chunks first so materialization is not counted.
	m.WriteUint64(aligned, 1)
	m.WriteUint64(straddle, 2)
	if avg := testing.AllocsPerRun(100, func() {
		m.WriteUint(aligned, 0xF00D, 8)
		_ = m.ReadUint(aligned, 8)
		m.WriteUint(straddle, 0xBEEF, 8)
		_ = m.ReadUint(straddle, 8)
		_ = m.ReadUint(aligned, 3) // odd-width in-chunk path
	}); avg != 0 {
		t.Fatalf("scalar path allocates: %v allocs/run", avg)
	}
}

// TestBackingMaterializesOneChunkPerTouch checks that a one-byte write to a
// fresh store materializes a single 4 KB chunk.
func TestBackingMaterializesOneChunkPerTouch(t *testing.T) {
	m := NewBacking()
	m.WriteUint(0x2000_0000_1234, 0xAB, 1)
	if len(m.chunks) != 1 {
		t.Fatalf("one-byte write materialized %d chunks, want 1", len(m.chunks))
	}
	for _, c := range m.chunks {
		if len(c) != 4096 {
			t.Fatalf("chunk is %d bytes, want 4096", len(c))
		}
	}
}
