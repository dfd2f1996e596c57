package memsys

import "encoding/binary"

// chunkBytes is the allocation granule of the backing store. It is an
// implementation detail independent of the architectural page size. A
// fresh device pays a chunk for every region a launch touches (buffers,
// RBT, locals), so the granule is small; a coalesced transaction is at most
// one 64 or 128 B line and lines divide it, so a transaction never
// straddles a chunk and Span always serves it.
const chunkBytes = 1 << 12

// Backing is the byte-addressable storage behind simulated device memory.
// It is sparse: chunks materialize on first touch, so a 48-bit address space
// costs only what is actually used. All addresses are physical (the
// simulator uses identity virtual→physical mapping after tag stripping).
type Backing struct {
	chunks map[uint64][]byte

	// spare holds zeroed chunks parked by Reset; first touches take from it
	// before allocating, so a reused store allocates only past the largest
	// footprint it has held.
	spare [][]byte

	// One-entry chunk cache: functional memory traffic is heavily clustered
	// (a warp's lanes touch neighbouring addresses), so the last chunk
	// serves almost every access without a map lookup.
	lastBase  uint64
	lastChunk []byte
}

// NewBacking returns an empty backing store.
func NewBacking() *Backing {
	return &Backing{chunks: make(map[uint64][]byte)}
}

// Reset empties the store: every address reads zero again, as in a store
// fresh from NewBacking. The chunks are zeroed and parked for reuse rather
// than freed.
func (m *Backing) Reset() {
	for _, c := range m.chunks {
		clear(c)
		m.spare = append(m.spare, c)
	}
	clear(m.chunks)
	m.lastBase, m.lastChunk = 0, nil
}

// ChunkCounts reports how many chunks are materialized and how many zeroed
// spares Reset has parked.
func (m *Backing) ChunkCounts() (live, spare int) { return len(m.chunks), len(m.spare) }

// chunk returns the backing chunk containing addr, materializing it on
// first touch and refreshing the one-entry chunk cache.
func (m *Backing) chunk(addr uint64) []byte {
	base := addr / chunkBytes
	if m.lastChunk != nil && base == m.lastBase {
		return m.lastChunk
	}
	c, ok := m.chunks[base]
	if !ok {
		if n := len(m.spare); n > 0 {
			c = m.spare[n-1]
			m.spare[n-1] = nil
			m.spare = m.spare[:n-1]
		} else {
			c = make([]byte, chunkBytes)
		}
		m.chunks[base] = c
	}
	m.lastBase, m.lastChunk = base, c
	return c
}

// Span returns the live backing bytes for [addr, addr+n) when the range
// lies inside one chunk, materializing the chunk on first touch; a
// chunk-straddling (or out-of-range n) request returns nil and the caller
// falls back to the element-at-a-time path. The slice aliases the store —
// reads see current memory and writes through it are real stores — which is
// what lets the LSU batch a dense unit-stride transaction into one copy
// without allocating.
func (m *Backing) Span(addr uint64, n int) []byte {
	off := int(addr % chunkBytes)
	if n < 0 || off+n > chunkBytes {
		return nil
	}
	c := m.chunk(addr)
	return c[off : off+n]
}

// ReadBytes copies n bytes starting at addr into a new slice.
func (m *Backing) ReadBytes(addr uint64, n int) []byte {
	out := make([]byte, n)
	m.readInto(addr, out)
	return out
}

// readInto fills out from addr without allocating.
func (m *Backing) readInto(addr uint64, out []byte) {
	for i := 0; i < len(out); {
		c := m.chunk(addr + uint64(i))
		off := int((addr + uint64(i)) % chunkBytes)
		i += copy(out[i:], c[off:])
	}
}

// WriteBytes stores p starting at addr.
func (m *Backing) WriteBytes(addr uint64, p []byte) {
	for i := 0; i < len(p); {
		c := m.chunk(addr + uint64(i))
		off := int((addr + uint64(i)) % chunkBytes)
		k := copy(c[off:], p[i:])
		i += k
	}
}

// ReadUint reads an n-byte little-endian unsigned value (n in 1..8). The
// common case — the value lies inside one chunk — indexes the chunk
// directly; only a chunk-straddling access takes the byte-copy path.
func (m *Backing) ReadUint(addr uint64, n int) uint64 {
	off := int(addr % chunkBytes)
	if off+n <= chunkBytes {
		c := m.chunk(addr)
		switch n {
		case 8:
			return binary.LittleEndian.Uint64(c[off:])
		case 4:
			return uint64(binary.LittleEndian.Uint32(c[off:]))
		case 2:
			return uint64(binary.LittleEndian.Uint16(c[off:]))
		case 1:
			return uint64(c[off])
		}
		return readOddWidth(c, off, n)
	}
	var buf [8]byte
	m.readInto(addr, buf[:n])
	return binary.LittleEndian.Uint64(buf[:])
}

// readOddWidth handles the non-power-of-two widths the IR validator never
// emits (kept for API completeness, off the hot path).
//
//go:noinline
func readOddWidth(c []byte, off, n int) uint64 {
	var v uint64
	for i := n - 1; i >= 0; i-- {
		v = v<<8 | uint64(c[off+i])
	}
	return v
}

// WriteUint writes the low n bytes of v little-endian at addr (n in 1..8),
// with the same single-chunk fast path as ReadUint.
func (m *Backing) WriteUint(addr uint64, v uint64, n int) {
	off := int(addr % chunkBytes)
	if off+n <= chunkBytes {
		c := m.chunk(addr)
		switch n {
		case 8:
			binary.LittleEndian.PutUint64(c[off:], v)
		case 4:
			binary.LittleEndian.PutUint32(c[off:], uint32(v))
		case 2:
			binary.LittleEndian.PutUint16(c[off:], uint16(v))
		case 1:
			c[off] = byte(v)
		default:
			writeOddWidth(c, off, n, v)
		}
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	m.WriteBytes(addr, buf[:n])
}

// writeOddWidth is readOddWidth's store-side twin.
//
//go:noinline
func writeOddWidth(c []byte, off, n int, v uint64) {
	for i := 0; i < n; i++ {
		c[off+i] = byte(v >> (8 * uint(i)))
	}
}

// ReadUint64 reads a 64-bit little-endian value.
func (m *Backing) ReadUint64(addr uint64) uint64 { return m.ReadUint(addr, 8) }

// WriteUint64 writes a 64-bit little-endian value.
func (m *Backing) WriteUint64(addr uint64, v uint64) { m.WriteUint(addr, v, 8) }

// ReadUint32 reads a 32-bit little-endian value.
func (m *Backing) ReadUint32(addr uint64) uint32 { return uint32(m.ReadUint(addr, 4)) }

// WriteUint32 writes a 32-bit little-endian value.
func (m *Backing) WriteUint32(addr uint64, v uint32) { m.WriteUint(addr, uint64(v), 4) }
