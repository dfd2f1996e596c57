package core

import "fmt"

// FailureMode selects how the BCU handles a bounds-checking failure
// (§5.5.2).
type FailureMode uint8

const (
	// FailLog logs the error, returns zero for loads, and silently drops
	// stores; violations are reported at kernel completion.
	FailLog FailureMode = iota
	// FailFault raises a precise fault, aborting the kernel.
	FailFault
)

func (m FailureMode) String() string {
	if m == FailFault {
		return "fault"
	}
	return "log"
}

// ViolationKind classifies a detected memory-safety violation.
type ViolationKind uint8

// Violation kinds.
const (
	ViolationOOB       ViolationKind = iota // address range outside buffer bounds
	ViolationInvalidID                      // decrypted ID names an invalid RBT entry (forged or stale pointer)
	ViolationReadOnly                       // store through a read-only buffer
	ViolationNegOfs                         // Type-3 negative offset
)

func (k ViolationKind) String() string {
	switch k {
	case ViolationOOB:
		return "out-of-bounds"
	case ViolationInvalidID:
		return "invalid-buffer-id"
	case ViolationReadOnly:
		return "read-only-write"
	case ViolationNegOfs:
		return "negative-offset"
	}
	return "violation?"
}

// Violation records one detected illegal access.
type Violation struct {
	Kind     ViolationKind
	KernelID uint16
	BufferID uint16 // decrypted ID (Type 2) or 0 (Type 3)
	PC       int
	MinAddr  uint64
	MaxAddr  uint64
	IsStore  bool
}

func (v Violation) String() string {
	op := "load"
	if v.IsStore {
		op = "store"
	}
	return fmt.Sprintf("%s %s kernel=%d buffer=%d pc=@%d range=[%#x,%#x]",
		v.Kind, op, v.KernelID, v.BufferID, v.PC, v.MinAddr, v.MaxAddr)
}

// BCUConfig parameterizes one core's bounds-checking unit.
type BCUConfig struct {
	L1Entries int // L1 RCache entries (default 4)
	L2Entries int // L2 RCache entries (default 64)
	L1Latency int // L1 RCache access latency in cycles (default 1)
	L2Latency int // L2 RCache access latency in cycles (default 3)
	Mode      FailureMode

	// PerThread disables the paper's workgroup/warp-level optimization
	// (§1, §5.5): instead of one min/max range check per coalesced warp
	// instruction, the BCU checks every active lane individually. Exists
	// for the ablation study quantifying the optimization's value.
	PerThread bool

	// Partitions splits the RCaches into banks selected by kernel ID, the
	// §6.2 mitigation for intra-core multi-kernel sharing ("double and
	// partition RCaches"). 0 or 1 means unpartitioned; 2 gives each of two
	// co-resident kernels a private half (each of the configured entry
	// counts, i.e. the doubled-capacity design the paper suggests).
	Partitions int
}

// DefaultBCUConfig returns the paper's default BCU: 4-entry 1-cycle L1
// RCache, 64-entry 3-cycle L2 RCache.
func DefaultBCUConfig() BCUConfig {
	return BCUConfig{L1Entries: 4, L2Entries: 64, L1Latency: 1, L2Latency: 3, Mode: FailLog}
}

// BCUStats accumulates bounds-checking activity for one BCU.
type BCUStats struct {
	Checks        uint64 // Type-2 runtime checks performed
	Type3Checks   uint64 // Type-3 embedded-size checks (no RCache access)
	Skipped       uint64 // accesses not checked (Type-1 / statically proven)
	L1Hits        uint64
	L2Hits        uint64
	RBTFetches    uint64 // L2 RCache misses serviced from the in-memory RBT
	StallCycles   uint64 // pipeline bubbles injected
	Violations    uint64
	SquashedLoads uint64
	DroppedStores uint64
}

// kernelCtx is the per-kernel state the driver programs into each core the
// kernel runs on: the decryption key and the RBT's location (§5.4).
type kernelCtx struct {
	key     uint64
	rbt     *RBT
	rbtBase uint64
}

// RBTFetcher reads an RBT entry from device memory, returning its bounds
// and the access latency in cycles. The simulator wires this to the L2
// cache/DRAM path; standalone users can rely on the architectural fallback.
type RBTFetcher func(rbtBase uint64, id uint16) (Bounds, uint64)

// BCU is the bounds-checking unit attached to one core's LSU (§5.5). It
// owns the core's RCache hierarchy (one bank per partition) and performs
// warp-level address-range checks for every protected memory instruction.
type BCU struct {
	cfg     BCUConfig
	l1      []*L1RCache
	l2      []*L2RCache
	kernels map[uint16]*kernelCtx
	fetch   RBTFetcher
	Stats   BCUStats

	violations []Violation
	faulted    bool
	fault      Violation

	// gen counts mutations of per-kernel decrypt state (kernel install or
	// removal, key perturbation): any CheckMemo stamped with an older gen
	// is stale. RCache/RBT corruption does not bump it — bounds are always
	// read live from the caches and table, never memoized.
	gen uint64
}

// NewBCU builds a BCU from cfg.
func NewBCU(cfg BCUConfig) *BCU {
	if cfg.L1Entries == 0 {
		cfg = DefaultBCUConfig()
	}
	if cfg.Partitions < 1 {
		cfg.Partitions = 1
	}
	b := &BCU{
		cfg:     cfg,
		kernels: make(map[uint16]*kernelCtx),
	}
	for i := 0; i < cfg.Partitions; i++ {
		b.l1 = append(b.l1, NewL1RCache(cfg.L1Entries))
		b.l2 = append(b.l2, NewL2RCache(cfg.L2Entries))
	}
	return b
}

// Reset returns the BCU to the state NewBCU gives: both RCache levels
// empty with zeroed statistics, no kernel installed, an empty violation
// log and no latched fault. gen is the one exception: it advances instead
// of restarting, so a CheckMemo stamped before the reset can never match
// again.
func (b *BCU) Reset() {
	for i := range b.l1 {
		b.l1[i].Reset()
		b.l2[i].Reset()
	}
	clear(b.kernels)
	b.Stats = BCUStats{}
	clear(b.violations)
	b.violations = b.violations[:0]
	b.faulted, b.fault = false, Violation{}
	b.gen++
}

// bank selects the RCache partition for a kernel (§6.2: kernels map to
// banks by scheduler position; kernel ID is our stand-in).
func (b *BCU) bank(kernelID uint16) int {
	return int(kernelID) % b.cfg.Partitions
}

// Config returns the BCU parameters.
func (b *BCU) Config() BCUConfig { return b.cfg }

// SetRBTFetcher installs the device-memory fetch path for RBT entries.
func (b *BCU) SetRBTFetcher(f RBTFetcher) { b.fetch = f }

// InstallKernel programs the per-kernel secret key and RBT location into
// the core, as the driver does at kernel launch (§5.4).
func (b *BCU) InstallKernel(kernelID uint16, key uint64, rbt *RBT, rbtBase uint64) {
	b.gen++
	b.kernels[kernelID] = &kernelCtx{key: key, rbt: rbt, rbtBase: rbtBase}
}

// RemoveKernel tears down per-kernel state and flushes the kernel's RCache
// bank, as on kernel termination or context switch (§5.5).
func (b *BCU) RemoveKernel(kernelID uint16) {
	b.gen++
	delete(b.kernels, kernelID)
	b.l1[b.bank(kernelID)].Flush()
	b.l2[b.bank(kernelID)].Flush()
}

// L1Stats and L2Stats expose aggregate RCache hit statistics across banks.
func (b *BCU) L1Stats() RCacheStats {
	var s RCacheStats
	for _, c := range b.l1 {
		s.Accesses += c.Stats.Accesses
		s.Hits += c.Stats.Hits
	}
	return s
}

func (b *BCU) L2Stats() RCacheStats {
	var s RCacheStats
	for _, c := range b.l2 {
		s.Accesses += c.Stats.Accesses
		s.Hits += c.Stats.Hits
	}
	return s
}

// Violations returns the violation log (FailLog mode).
func (b *BCU) Violations() []Violation { return b.violations }

// TakeViolations removes and returns the violation records belonging to one
// kernel, clearing its fault state with them. Called at kernel termination:
// kernel IDs are drawn from a small space and recycle across launches, so a
// long-lived BCU that kept the log would re-attribute an earlier kernel's
// violations to a later one that happens to draw the same ID — and the log
// would grow without bound in a serving daemon.
func (b *BCU) TakeViolations(kernelID uint16) []Violation {
	var taken []Violation
	kept := b.violations[:0]
	for _, v := range b.violations {
		if v.KernelID == kernelID {
			taken = append(taken, v)
		} else {
			kept = append(kept, v)
		}
	}
	// Drop the tail so retained records do not pin freed entries.
	for i := len(kept); i < len(b.violations); i++ {
		b.violations[i] = Violation{}
	}
	b.violations = kept
	if b.faulted && b.fault.KernelID == kernelID {
		b.faulted = false
		b.fault = Violation{}
	}
	return taken
}

// Faulted reports whether a precise fault was raised, and the violation
// that caused it.
func (b *BCU) Faulted() (Violation, bool) { return b.fault, b.faulted }

// ResetFault clears fault state (between launches in tests).
func (b *BCU) ResetFault() { b.faulted = false }

// CheckRequest describes one warp-level coalesced memory instruction to be
// bounds checked. The address-gathering pipeline has already reduced the
// active lanes' addresses to a [MinAddr, MaxAddr] range (inclusive of the
// access's last byte), so a single range comparison covers the whole warp.
type CheckRequest struct {
	KernelID uint16
	Pointer  uint64 // tagged pointer (class + payload); address bits unused here
	MinAddr  uint64 // untagged lowest byte accessed
	MaxAddr  uint64 // untagged highest byte accessed
	MinOfs   int64  // Type 3: lowest byte offset from the buffer base
	MaxOfs   int64  // Type 3: highest byte offset from the buffer base
	IsStore  bool
	PC       int

	// SingleTransaction and L1DHit describe the instruction's LSU behaviour:
	// a pipeline bubble is visible only when a single coalesced transaction
	// hits in the L1 data cache, because longer LSU paths hide the RCache
	// access (Fig. 12).
	SingleTransaction bool
	L1DHit            bool
}

// ServiceLevel reports which structure satisfied a bounds check.
type ServiceLevel uint8

// Service levels.
const (
	ServedSkip  ServiceLevel = iota // Type 1: no check performed
	ServedL1                        // L1 RCache hit
	ServedL2                        // L2 RCache hit
	ServedRBT                       // fetched from the in-memory RBT
	ServedType3                     // embedded-size check, no RCache access
)

// CheckResult is the BCU's verdict for one request.
type CheckResult struct {
	OK           bool
	Stall        int    // pipeline bubbles injected into the LSU
	ExtraLatency uint64 // additional completion latency (RBT fetch not hidden)
	Level        ServiceLevel
	Violation    *Violation
	SquashLoad   bool // FailLog: loads must return zero
	DropStore    bool // FailLog: stores must be discarded
}

// Check bounds-checks one warp memory instruction. Pointer class selects
// the path: Type 1 skips checking; Type 2 decrypts the buffer ID and walks
// the RCache hierarchy; Type 3 compares the explicit offsets against the
// size embedded in the pointer without touching the RCaches (§5.3.3).
func (b *BCU) Check(req CheckRequest) CheckResult {
	switch Class(req.Pointer) {
	case ClassUnprotected:
		b.Stats.Skipped++
		return CheckResult{OK: true, Level: ServedSkip}
	case ClassSize:
		return b.checkType3(req)
	default:
		return b.checkType2(req)
	}
}

// CheckMemo is a caller-held decrypt memo for CheckWarm: the (kernel,
// pointer tag) → (buffer ID, kernel context) resolution of the last Type-2
// check through this call site. The key is the pointer's top 16 bits
// (class + encrypted payload) — the only pointer bits the resolution reads
// — so a streaming access whose address advances under a constant buffer
// tag keeps hitting. A memo is valid only while the BCU's per-kernel
// decrypt state is unchanged (same gen); the zero value is an empty memo.
// It memoizes nothing timing-visible — bounds, RCache walks, stall
// accounting, and violations are always recomputed live — so CheckWarm and
// Check are observably identical.
type CheckMemo struct {
	gen     uint64
	ctx     *kernelCtx
	kernel  uint16
	tag     uint16 // pointer class + payload bits (>> AddrBits)
	id      uint16
	resolve bool
}

// CheckWarm is Check with a decrypt memo: when memo holds this (kernel,
// pointer tag) pair at the current generation, the kernel-table lookup and
// the Feistel payload decryption are skipped. Every counter, RCache access,
// bubble, and violation fires exactly as in Check.
func (b *BCU) CheckWarm(req CheckRequest, memo *CheckMemo) CheckResult {
	switch Class(req.Pointer) {
	case ClassUnprotected:
		b.Stats.Skipped++
		return CheckResult{OK: true, Level: ServedSkip}
	case ClassSize:
		return b.checkType3(req)
	}
	b.Stats.Checks++
	tag := uint16(req.Pointer >> AddrBits)
	if memo.resolve && memo.gen == b.gen && memo.kernel == req.KernelID && memo.tag == tag {
		return b.checkType2Resolved(req, memo.ctx, memo.id)
	}
	ctx := b.kernels[req.KernelID]
	if ctx == nil {
		// No key installed for this kernel: treat as a forged pointer.
		return b.fail(req, Violation{Kind: ViolationInvalidID, KernelID: req.KernelID,
			PC: req.PC, MinAddr: req.MinAddr, MaxAddr: req.MaxAddr, IsStore: req.IsStore})
	}
	id := DecryptID(Payload(req.Pointer), ctx.key)
	*memo = CheckMemo{gen: b.gen, ctx: ctx, kernel: req.KernelID, tag: tag, id: id, resolve: true}
	return b.checkType2Resolved(req, ctx, id)
}

func (b *BCU) checkType3(req CheckRequest) CheckResult {
	b.Stats.Type3Checks++
	size := int64(1) << (Payload(req.Pointer) & 0x3F)
	if req.MinOfs < 0 {
		res := b.fail(req, Violation{Kind: ViolationNegOfs, KernelID: req.KernelID,
			PC: req.PC, MinAddr: req.MinAddr, MaxAddr: req.MaxAddr, IsStore: req.IsStore})
		res.Level = ServedType3
		return res
	}
	if req.MaxOfs >= size {
		res := b.fail(req, Violation{Kind: ViolationOOB, KernelID: req.KernelID,
			PC: req.PC, MinAddr: req.MinAddr, MaxAddr: req.MaxAddr, IsStore: req.IsStore})
		res.Level = ServedType3
		return res
	}
	return CheckResult{OK: true, Level: ServedType3}
}

func (b *BCU) checkType2(req CheckRequest) CheckResult {
	b.Stats.Checks++
	ctx := b.kernels[req.KernelID]
	if ctx == nil {
		// No key installed for this kernel: treat as a forged pointer.
		return b.fail(req, Violation{Kind: ViolationInvalidID, KernelID: req.KernelID,
			PC: req.PC, MinAddr: req.MinAddr, MaxAddr: req.MaxAddr, IsStore: req.IsStore})
	}
	id := DecryptID(Payload(req.Pointer), ctx.key)
	return b.checkType2Resolved(req, ctx, id)
}

// checkType2Resolved is the RCache walk and bounds comparison shared by
// checkType2 and CheckWarm, after the pointer payload has been decrypted
// (or recalled from a memo) into a buffer ID.
func (b *BCU) checkType2Resolved(req CheckRequest, ctx *kernelCtx, id uint16) CheckResult {
	var (
		bounds Bounds
		stall  int
		extra  uint64
		level  ServiceLevel
	)
	l1 := b.l1[b.bank(req.KernelID)]
	l2 := b.l2[b.bank(req.KernelID)]
	if bd, ok := l1.Lookup(req.KernelID, id); ok {
		b.Stats.L1Hits++
		bounds = bd
		level = ServedL1
		stall = b.bubble(req, b.cfg.L1Latency-1)
	} else if bd, ok := l2.Lookup(req.KernelID, id); ok {
		b.Stats.L2Hits++
		bounds = bd
		l1.Insert(req.KernelID, id, bd)
		level = ServedL2
		stall = b.bubble(req, b.cfg.L1Latency-1+b.cfg.L2Latency-2)
	} else {
		b.Stats.RBTFetches++
		level = ServedRBT
		var lat uint64
		if b.fetch != nil {
			bounds, lat = b.fetch(ctx.rbtBase, id)
		} else {
			bounds, lat = ctx.rbt.Lookup(id), 50
		}
		l2.Insert(req.KernelID, id, bounds)
		l1.Insert(req.KernelID, id, bounds)
		// An RBT fetch overlaps the transaction's own miss handling (it
		// behaves like a TLB-miss-class event, §5.5); it is exposed only
		// when a single coalesced transaction hit in the L1 Dcache, the
		// same visibility condition as the pipeline bubble (Fig. 12).
		if req.L1DHit && req.SingleTransaction {
			extra = lat
		}
	}

	v := Violation{KernelID: req.KernelID, BufferID: id, PC: req.PC,
		MinAddr: req.MinAddr, MaxAddr: req.MaxAddr, IsStore: req.IsStore}
	switch {
	case !bounds.Valid():
		v.Kind = ViolationInvalidID
	case !bounds.Contains(req.MinAddr, req.MaxAddr):
		v.Kind = ViolationOOB
	case req.IsStore && bounds.ReadOnly():
		v.Kind = ViolationReadOnly
	default:
		return CheckResult{OK: true, Stall: stall, ExtraLatency: extra, Level: level}
	}
	res := b.fail(req, v)
	res.Stall, res.ExtraLatency, res.Level = stall, extra, level
	return res
}

// bubble converts an RCache path latency overshoot into a pipeline stall.
// The LSU pipeline hides the check entirely unless the instruction was a
// single transaction hitting in the L1 data cache (Fig. 12).
func (b *BCU) bubble(req CheckRequest, cycles int) int {
	if cycles <= 0 || !req.SingleTransaction || !req.L1DHit {
		return 0
	}
	b.Stats.StallCycles += uint64(cycles)
	return cycles
}

func (b *BCU) fail(req CheckRequest, v Violation) CheckResult {
	b.Stats.Violations++
	if b.cfg.Mode == FailFault {
		if !b.faulted {
			b.faulted, b.fault = true, v
		}
		return CheckResult{OK: false, Violation: &v}
	}
	b.violations = append(b.violations, v)
	res := CheckResult{OK: false, Violation: &v}
	if req.IsStore {
		b.Stats.DroppedStores++
		res.DropStore = true
	} else {
		b.Stats.SquashedLoads++
		res.SquashLoad = true
	}
	return res
}
