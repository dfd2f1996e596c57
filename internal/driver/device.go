// Package driver models the GPU driver half of GPUShield (§5.4): device
// memory allocation, the SVM allocator whose layout gives rise to the
// Fig. 4 overflow behaviour, per-launch buffer-ID assignment and
// encryption-key generation, Region Bounds Table construction in device
// memory, and pointer tagging of kernel arguments.
package driver

import (
	"fmt"
	"math/rand"

	"gpushield/internal/core"
	"gpushield/internal/memsys"
)

// Architectural layout constants.
const (
	// PageBytes is the translation granule used by the TLBs and the
	// page-touch census (Fig. 11 counts 4 KB pages).
	PageBytes = 4096

	// SVMPageBytes is the large-page granule of the SVM/UM allocator;
	// out-of-bounds writes inside a mapped 2 MB page succeed while accesses
	// crossing into an unmapped page fault (Fig. 4, §3.1).
	SVMPageBytes = 2 << 20

	// SVMAlignBytes is the default allocation alignment of the SVM
	// allocator; overflows within the alignment padding are "suppressed"
	// (no observable side effect, Fig. 4 case 1).
	SVMAlignBytes = 512

	// Address-space carve-out (48-bit VA space).
	globalBase = uint64(0x2000_0000_0000) // cudaMalloc-style buffers
	svmBase    = uint64(0x4000_0000_0000) // SVM / unified-memory buffers
	heapBase   = uint64(0x6000_0000_0000) // device malloc heap
	localBase  = uint64(0x7000_0000_0000) // per-thread local (stack) memory
	rbtBase    = uint64(0x7F00_0000_0000) // region bounds tables
)

// Buffer is a device allocation visible to kernels.
type Buffer struct {
	Name     string
	Base     uint64 // untagged virtual base address
	Size     uint64 // requested size in bytes
	Padded   uint64 // size padded for alignment (power of two for Type 3)
	ReadOnly bool
	SVM      bool
}

// End returns one past the last requested byte.
func (b *Buffer) End() uint64 { return b.Base + b.Size }

// Device owns simulated device memory: the backing store, the set of mapped
// pages, and the allocators.
type Device struct {
	Mem *memsys.Backing

	mapped pageMap // mapped pages (PageBytes granule)

	globalNext uint64
	svmNext    uint64
	rbtNext    uint64
	localNext  uint64

	heap      *Buffer
	heapNext  uint64
	heapLimit uint64

	// heapChunks records device-malloc allocations; with fine-grained heap
	// protection enabled (§5.7's future-work extension) each chunk gets its
	// own RBT entry at launch instead of sharing the coarse heap region.
	heapChunks    []Buffer
	fineGrainHeap bool

	// idBudget caps the number of buffer IDs a single launch may consume
	// (0 = the full 14-bit space). When a launch would exceed it, the
	// driver merges adjacent buffers into shared entries, the §6.3
	// degradation path for hypothetical programming models with very many
	// buffers.
	idBudget int

	// RBT-region recycling (SetRBTRecycle): with it on, every prepared
	// launch reuses one table region instead of reserving a fresh 256 KB
	// slice of the RBT arena, and the previous launch's valid entries are
	// zeroed before the new table is serialized. rbtIDs remembers which IDs
	// the last launch wrote so the scrub is O(entries), not O(NumIDs).
	rbtRecycle bool
	rbtRegion  uint64
	rbtIDs     []uint16

	// launchMutator, when set, runs over every prepared launch just before
	// PrepareLaunch returns it. Fault campaigns use it to model driver bugs
	// (stale/duplicate ID assignment, omitted RBT setup).
	launchMutator func(*Launch)

	rng *rand.Rand
}

// SetLaunchMutator registers (or, with nil, clears) a hook that may mutate
// every prepared launch before the simulator sees it.
func (d *Device) SetLaunchMutator(fn func(*Launch)) { d.launchMutator = fn }

// NewDevice creates a device with an empty address space. The seed makes ID
// and key generation deterministic for reproducible experiments; use
// different seeds to observe different random ID assignments.
func NewDevice(seed int64) *Device {
	return &Device{
		Mem:        memsys.NewBacking(),
		globalNext: globalBase,
		svmNext:    svmBase,
		rbtNext:    rbtBase,
		localNext:  localBase,
		rng:        rand.New(rand.NewSource(seed)),
	}
}

// Reset returns the device to exactly the state NewDevice(seed) gives,
// reusing its allocations: empty memory and page map, allocator cursors at
// their bases, no heap, default RBT/heap/ID-budget policies, no launch
// mutator, and the ID/key stream restarted from seed. Buffers and launches
// prepared before the reset are dead: their memory reads zero and their
// addresses are handed out again.
func (d *Device) Reset(seed int64) {
	d.Mem.Reset()
	d.mapped.reset()
	d.globalNext, d.svmNext, d.rbtNext, d.localNext = globalBase, svmBase, rbtBase, localBase
	d.heap, d.heapNext, d.heapLimit = nil, 0, 0
	clear(d.heapChunks)
	d.heapChunks = d.heapChunks[:0]
	d.fineGrainHeap = false
	d.idBudget = 0
	d.rbtRecycle, d.rbtRegion = false, 0
	d.rbtIDs = d.rbtIDs[:0]
	d.launchMutator = nil
	d.rng.Seed(seed)
}

func align(v, a uint64) uint64 { return (v + a - 1) &^ (a - 1) }

// nextPow2 returns the smallest power of two >= v (minimum 1).
func nextPow2(v uint64) uint64 {
	p := uint64(1)
	for p < v {
		p <<= 1
	}
	return p
}

// mapRange marks [base, base+size) as mapped at PageBytes granularity.
func (d *Device) mapRange(base, size uint64) {
	d.mapped.insert(base/PageBytes, (base+size-1)/PageBytes)
}

// Mapped reports whether the page containing vaddr is mapped; unmapped
// accesses raise the "illegal memory access" kernel abort of Fig. 4 case 3.
func (d *Device) Mapped(vaddr uint64) bool {
	p := vaddr / PageBytes
	return d.mapped.contains(p, p)
}

// MappedRange reports whether every page overlapping the byte range
// [lo, hi] is mapped. Callers must guarantee lo <= hi; the LSU uses this to
// clear a whole coalesced transaction's page-fault check in one sweep when
// the warp's addresses span a small contiguous window.
func (d *Device) MappedRange(lo, hi uint64) bool {
	return d.mapped.contains(lo/PageBytes, hi/PageBytes)
}

// Malloc allocates a device buffer (cudaMalloc analogue). Buffers are
// padded to the next power of two so Type-3 size-embedded pointers are
// always constructible (§5.3.3); the padding models the fragmentation cost
// the paper accepts for that optimization.
func (d *Device) Malloc(name string, size uint64, readOnly bool) *Buffer {
	if size == 0 {
		size = 1
	}
	padded := nextPow2(size)
	base := align(d.globalNext, padded)
	if base%SVMAlignBytes != 0 {
		base = align(base, SVMAlignBytes)
	}
	d.globalNext = base + padded
	d.mapRange(base, padded)
	return &Buffer{Name: name, Base: base, Size: size, Padded: padded, ReadOnly: readOnly}
}

// MallocManaged allocates an SVM/unified-memory buffer
// (cudaMallocManaged analogue): 512 B-aligned allocations packed
// consecutively inside on-demand-mapped 2 MB pages. This layout is what
// makes the three Fig. 4 overflow outcomes observable.
func (d *Device) MallocManaged(name string, size uint64) *Buffer {
	if size == 0 {
		size = 1
	}
	base := align(d.svmNext, SVMAlignBytes)
	// Entire 2 MB pages are mapped on allocation; an allocation that spills
	// into the next 2 MB page maps that page too.
	d.svmNext = base + size
	first := base / SVMPageBytes * SVMPageBytes
	last := (base + size - 1) / SVMPageBytes * SVMPageBytes
	for p := first; p <= last; p += SVMPageBytes {
		d.mapRange(p, SVMPageBytes)
	}
	padded := align(size, SVMAlignBytes)
	return &Buffer{Name: name, Base: base, Size: size, Padded: padded, SVM: true}
}

// SetHeapLimit configures the device-malloc heap
// (cudaDeviceSetLimit(cudaLimitMallocHeapSize) analogue). GPUShield
// maintains a single coarse RBT entry covering the entire heap (§5.2.1).
func (d *Device) SetHeapLimit(size uint64) {
	if size == 0 {
		size = 8 << 20
	}
	d.heap = &Buffer{Name: "heap", Base: heapBase, Size: size, Padded: nextPow2(size)}
	d.heapNext = heapBase
	d.heapLimit = heapBase + size
	d.mapRange(heapBase, size)
}

// Heap returns the heap region, creating it with the default limit if the
// application never set one.
func (d *Device) Heap() *Buffer {
	if d.heap == nil {
		d.SetHeapLimit(0)
	}
	return d.heap
}

// DeviceMalloc carves an allocation out of the heap (in-kernel malloc
// analogue). It returns the untagged address, or an error when the heap
// limit is exhausted.
func (d *Device) DeviceMalloc(size uint64) (uint64, error) {
	d.Heap()
	base := align(d.heapNext, 16)
	if base+size > d.heapLimit {
		return 0, fmt.Errorf("%w: heap limit exceeded (%d bytes requested)", ErrAllocExhausted, size)
	}
	d.heapNext = base + size
	d.heapChunks = append(d.heapChunks, Buffer{
		Name: fmt.Sprintf("heap-chunk-%d", len(d.heapChunks)),
		Base: base, Size: size, Padded: size,
	})
	return base, nil
}

// SetFineGrainedHeap enables per-allocation heap protection, the extension
// the paper leaves as future work (§5.7): at launch, every device-malloc
// chunk receives its own buffer ID and RBT entry, so intra-heap overflows
// between chunks become detectable. The cost the paper anticipates — many
// IDs and RCache pressure under massive dynamic allocation — is real here
// too: each chunk consumes one of the 16384 IDs.
func (d *Device) SetFineGrainedHeap(on bool) { d.fineGrainHeap = on }

// HeapChunks returns the device-malloc allocation records.
func (d *Device) HeapChunks() []Buffer { return d.heapChunks }

// SetIDBudget limits how many buffer IDs one launch may use (§6.3). With a
// tight budget the driver merges address-adjacent buffer arguments into
// shared RBT entries; isolation *between merged neighbors* is lost, which
// is exactly the trade-off the paper describes for that fallback.
func (d *Device) SetIDBudget(n int) { d.idBudget = n }

// AllocLocal reserves the local-memory (off-chip stack) region for one
// kernel launch: one region per local variable sized var.Bytes × threads,
// organized so that consecutive threads' copies of a word are adjacent
// (§3.1). It returns the per-variable region buffers.
func (d *Device) AllocLocal(vars []LocalRegion) []LocalRegion {
	for i := range vars {
		size := uint64(vars[i].PerThread) * uint64(vars[i].Threads)
		base := align(d.localNext, PageBytes)
		d.localNext = base + align(size, PageBytes)
		d.mapRange(base, size)
		vars[i].Base = base
		vars[i].Size = size
	}
	return vars
}

// LocalRegion describes one local variable's launch-wide region.
type LocalRegion struct {
	Name      string
	PerThread int
	Threads   int
	Base      uint64
	Size      uint64
}

// LocalAddr computes the interleaved local-memory address for a thread's
// byte offset within a variable: consecutive threads' copies of the same
// 32-bit word are adjacent in memory.
func (r *LocalRegion) LocalAddr(thread int, offset int64) uint64 {
	word := uint64(offset) / 4
	byteIn := uint64(offset) % 4
	return r.Base + word*4*uint64(r.Threads) + uint64(thread)*4 + byteIn
}

// SetRBTRecycle selects whether launches reuse a single RBT region. The
// default (off) reserves a fresh region per prepared launch — correct for
// any lifetime pattern, including concurrent launch sets whose tables must
// coexist, but each launch materializes new backing chunks and a daemon
// serving millions of launches grows without bound. With recycling on, the
// device serializes every launch's table into the same region, scrubbing the
// previous launch's entries first, so serving traffic holds device memory
// flat. Only legal when launches are strictly serialized: the next
// PrepareLaunch invalidates the previous launch's table, so no two launches
// prepared under recycling may ever be in flight together (the service's
// per-device worker guarantees exactly that).
func (d *Device) SetRBTRecycle(on bool) { d.rbtRecycle = on }

// allocRBT reserves device memory for one kernel's Region Bounds Table —
// or, under SetRBTRecycle, returns the shared recycled region after
// scrubbing the previous occupant's entries.
func (d *Device) allocRBT() uint64 {
	if d.rbtRecycle {
		if d.rbtRegion == 0 {
			d.rbtRegion = align(d.rbtNext, PageBytes)
			d.rbtNext = d.rbtRegion + uint64(core.NumIDs*core.BoundsEntryBytes)
		}
		var zero [core.BoundsEntryBytes]byte
		for _, id := range d.rbtIDs {
			d.Mem.WriteBytes(core.EntryAddr(d.rbtRegion, id), zero[:])
		}
		d.rbtIDs = d.rbtIDs[:0]
		return d.rbtRegion
	}
	base := align(d.rbtNext, PageBytes)
	d.rbtNext = base + uint64(core.NumIDs*core.BoundsEntryBytes)
	// RBT pages are intentionally NOT entered in the normal mapping: GPU
	// cores access the table by physical address and ordinary loads that
	// touch it fault (§5.4, §6.1).
	return base
}

// CopyToDevice writes host data into a buffer (cudaMemcpy H2D analogue).
// The bounds check is two comparisons, not offset+len > Size: a hostile
// offset near 2^64 would wrap the sum back under Size (and b.Base+offset to
// an address before the buffer), turning the copy into an arbitrary write.
func (d *Device) CopyToDevice(b *Buffer, offset uint64, data []byte) error {
	if offset > b.Size || uint64(len(data)) > b.Size-offset {
		return fmt.Errorf("driver: copy of %d bytes at +%d overruns %s (%d bytes)",
			len(data), offset, b.Name, b.Size)
	}
	d.Mem.WriteBytes(b.Base+offset, data)
	return nil
}

// CopyFromDevice reads buffer contents back to the host. Same
// overflow-proof check as CopyToDevice; a negative n also lands in the
// rejection (its uint64 conversion exceeds any buffer size).
func (d *Device) CopyFromDevice(b *Buffer, offset uint64, n int) ([]byte, error) {
	if offset > b.Size || uint64(n) > b.Size-offset {
		return nil, fmt.Errorf("driver: read of %d bytes at +%d overruns %s (%d bytes)",
			n, offset, b.Name, b.Size)
	}
	return d.Mem.ReadBytes(b.Base+offset, n), nil
}

// WriteUint32/ReadUint32 and friends are convenience element accessors used
// heavily by workloads and tests.

func (d *Device) WriteUint32(b *Buffer, idx int, v uint32) {
	d.Mem.WriteUint32(b.Base+uint64(idx)*4, v)
}
func (d *Device) ReadUint32(b *Buffer, idx int) uint32 {
	return d.Mem.ReadUint32(b.Base + uint64(idx)*4)
}
func (d *Device) WriteUint64(b *Buffer, idx int, v uint64) {
	d.Mem.WriteUint64(b.Base+uint64(idx)*8, v)
}
func (d *Device) ReadUint64(b *Buffer, idx int) uint64 {
	return d.Mem.ReadUint64(b.Base + uint64(idx)*8)
}

// WriteFloat32 stores a float32 element (workloads keep 4-byte data).
func (d *Device) WriteFloat32(b *Buffer, idx int, v float32) {
	d.Mem.WriteUint32(b.Base+uint64(idx)*4, f32bits(v))
}

// ReadFloat32 loads a float32 element.
func (d *Device) ReadFloat32(b *Buffer, idx int) float32 {
	return f32from(d.Mem.ReadUint32(b.Base + uint64(idx)*4))
}
