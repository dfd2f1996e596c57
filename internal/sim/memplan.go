package sim

import (
	"encoding/binary"
	"math"
	"math/bits"

	"gpushield/internal/core"
	"gpushield/internal/driver"
	"gpushield/internal/kernel"
)

// Warp memory plans (the LSU analogue of superblock lowering, PR 10): the
// shape of a memory instruction — which operand carries the pointer, whether
// the offset is lane-affine, whether the static analyzer proved it safe —
// is constant for a warp's lifetime, so it is lowered once per (warp, pc)
// and recycled across loop iterations. On top of the lowered shape, address
// generation classifies each dynamic access by stride (uniform /
// unit-stride / strided / indirect), which lets memCommit:
//
//   - clear the page-fault check for the whole transaction with one mapped
//     range sweep instead of a per-lane page-table probe;
//   - resolve the bounds check through a per-call-site decrypt memo
//     (core.CheckMemo) so the Feistel network runs once per (buffer,
//     kernel) instead of once per instruction — the software mirror of the
//     paper's RCache locality;
//   - service dense unit-stride loads and stores through one backing-store
//     span instead of 32 scalar accesses.
//
// Equivalence with the reference path is held the same way superblocks hold
// it: nothing timing-visible is memoized. The generated addresses, offsets,
// pointer tag, byte range, and coalesced line sequence are bit-identical to
// memGenRef's by construction (monotonicity and wrap guards force the
// reference loop whenever arithmetic generation would not be provably
// exact), and every BCU counter, RCache access, bubble, and violation fires
// through the same code. GPUSHIELD_NO_MEMPLANS / Config.NoMemPlans forces
// the reference path; the equivalence tests and the fuzz-smoke differential
// leg diff the two.

// Transaction classes assigned by the planned address generator.
const (
	memClassRef      uint8 = iota // reference generator: no plan metadata
	memClassIndirect              // no provable structure
	memClassUniform               // all active lanes hit the same address
	memClassUnit                  // dense unit stride: addr[i+1] = addr[i]+bytes
	memClassStrided               // constant stride, not dense
)

type memPlanKind uint8

const (
	mpRef   memPlanKind = iota // always the reference generator (local space)
	mpParam                    // Method C: uniform tagged base param + explicit offset
	mpReg                      // Method B: a register holds the full tagged address
)

// memPlan is one lowered memory instruction cached on a warp (indexed via
// warp.mpIdx, backing recycled across launches by placeWorkgroup).
type memPlan struct {
	kind   memPlanKind
	hasOff bool // mpReg: an explicit offset operand is present
	skip   bool // launch-constant l.SkipCheck[pc], memoized at lowering
	affine bool // mpParam: offset is a pure affine function of lane
	p0, p1 srcPlan
	pStore srcPlan // store/atomic value operand (Src[2])

	// vc is this call site's decrypt memo for transaction-granularity
	// checking: (kernel, pointer tag) resolve to the same buffer ID for as
	// long as the BCU generation stands (see core.CheckMemo).
	vc core.CheckMemo

	// Affine geometry cache: for mpParam+affine the whole address vector
	// is a warp-lifetime constant per guard mask, so the coalesced
	// geometry is computed once and replayed across loop iterations.
	// geomMask is the mask the cache was built for (0 = empty).
	geomMask uint64
	geom     memGeom
}

// memGeom is one cached address-generation + coalescing result.
type memGeom struct {
	class            uint8
	wrapped          bool
	stride           int64
	nLines           int
	lines            []uint64
	minAddr, maxAddr uint64
	minOfs, maxOfs   int64
}

// memPlanFor returns the warp's lowered memory plan for the current pc,
// lowering it on first visit. Entry backing arrays survive placeWorkgroup's
// reset, so steady-state relowering allocates nothing.
func (c *coreState) memPlanFor(w *warp, in *kernel.Instr) *memPlan {
	if ei := w.mpIdx[w.pc]; ei != 0 {
		return &w.mpEnt[ei-1]
	}
	n := len(w.mpEnt)
	if n < cap(w.mpEnt) {
		w.mpEnt = w.mpEnt[:n+1] // recycle a parked entry's backing
	} else {
		w.mpEnt = append(w.mpEnt, memPlan{})
	}
	e := &w.mpEnt[n]
	glines := e.geom.lines
	*e = memPlan{}
	e.geom.lines = glines
	l := w.wg.run.launch
	e.skip = l.SkipCheck[w.pc]
	switch {
	case in.Space == kernel.SpaceLocal:
		e.kind = mpRef
	case in.Src[0].Kind == kernel.OperandParam:
		e.kind = mpParam
		e.p1 = c.plan(w, in.Src[1])
		e.affine = e.p1.reg < 0
	default:
		e.kind = mpReg
		e.p0 = c.plan(w, in.Src[0])
		e.p1 = c.plan(w, in.Src[1])
		e.hasOff = in.Src[1].Kind != kernel.OperandNone
	}
	if in.Op == kernel.OpSt || in.Op == kernel.OpAtomAdd {
		e.pStore = c.plan(w, in.Src[2])
	}
	w.mpIdx[w.pc] = int32(n + 1)
	return e
}

// laneList returns the dense active-lane list for gmask, rebuilding the
// warp's cache only when the mask diverges from the last memory access's.
func (w *warp) laneList(gmask uint64) []int32 {
	if w.memMask == gmask {
		return w.memLanes
	}
	lns := w.memLanes[:0]
	for lanes := gmask; lanes != 0; {
		lane := bits.TrailingZeros64(lanes)
		lanes &^= 1 << uint(lane)
		lns = append(lns, int32(lane))
	}
	w.memMask, w.memLanes = gmask, lns
	return lns
}

// memGenFast is the planned address generator: it fills prep exactly as
// memGenRef would — same addresses, offsets, pointer tag, byte range, and
// coalesced line sequence — while classifying the access so memCommit can
// batch the page check, the bounds check, and the functional access. It
// returns false when the instruction has no plannable shape (local space),
// sending the caller to the reference generator.
func (c *coreState) memGenFast(w *warp, in *kernel.Instr, gmask uint64, prep *memPrep) bool {
	e := c.memPlanFor(w, in)
	if e.kind == mpRef {
		return false
	}
	l := w.wg.run.launch
	lanes := w.laneList(gmask)
	prep.plan = e
	prep.lanes = lanes
	bytes := uint64(in.Bytes)

	if e.kind == mpParam {
		base := l.Args[in.Src[0].Param]
		prep.ptr = base
		if e.affine && e.geomMask == gmask {
			// Replay the cached geometry; addrs/offs still refill (memCommit
			// reads them for the ablation loop, the census, and fallbacks).
			ab := core.Addr(base)
			b0, s := e.p1.base, e.p1.slope
			for _, ln := range lanes {
				off := b0 + s*int64(ln)
				prep.offs[ln] = off
				prep.addrs[ln] = ab + uint64(off)
			}
			g := &e.geom
			prep.nLines = g.nLines
			copy(prep.lines[:g.nLines], g.lines)
			prep.minAddr, prep.maxAddr = g.minAddr, g.maxAddr
			prep.minOfs, prep.maxOfs = g.minOfs, g.maxOfs
			prep.class, prep.stride, prep.wrapped = g.class, g.stride, g.wrapped
			return true
		}
		c.memScanParam(w, e, l, gmask, prep, bytes)
		if e.affine {
			g := &e.geom
			if cap(g.lines) < len(prep.lines) {
				g.lines = make([]uint64, 0, len(prep.lines))
			}
			g.lines = append(g.lines[:0], prep.lines[:prep.nLines]...)
			g.nLines = prep.nLines
			g.minAddr, g.maxAddr = prep.minAddr, prep.maxAddr
			g.minOfs, g.maxOfs = prep.minOfs, prep.maxOfs
			g.class, g.stride, g.wrapped = prep.class, prep.stride, prep.wrapped
			e.geomMask = gmask
		}
		return true
	}
	c.memScanReg(w, e, gmask, prep, bytes)
	return true
}

// memScanParam generates addresses for a Method-C access (uniform tagged
// base + explicit per-lane offset), tracking the byte range and the stride
// evidence the classifier needs. The arithmetic per lane is identical to
// memGenRef's Method-C case.
func (c *coreState) memScanParam(w *warp, e *memPlan, l *driver.Launch, gmask uint64, prep *memPrep, bytes uint64) {
	ab := core.Addr(prep.ptr)
	lanes := prep.lanes
	var (
		minA     = ^uint64(0)
		maxA     uint64
		minO     = int64(math.MaxInt64)
		maxO     = int64(math.MinInt64)
		mono     = true
		strideOK = true
		stride   int64
		wrapped  bool
		prev     uint64
	)
	for i, ln := range lanes {
		off := e.p1.eval(w, int(ln))
		a := ab + uint64(off)
		prep.addrs[ln] = a
		prep.offs[ln] = off
		if a < minA {
			minA = a
		}
		hi := a + bytes - 1
		if hi > maxA {
			maxA = hi
		}
		if hi < a {
			wrapped = true
		}
		if off < minO {
			minO = off
		}
		if oh := off + int64(bytes) - 1; oh > maxO {
			maxO = oh
		}
		if i == 1 {
			if a < prev {
				mono = false
			} else {
				stride = int64(a - prev)
			}
		} else if i > 1 {
			if a < prev {
				mono = false
			} else if int64(a-prev) != stride {
				strideOK = false
			}
		}
		prev = a
	}
	prep.minAddr, prep.maxAddr = minA, maxA
	prep.minOfs, prep.maxOfs = minO, maxO
	c.classifyAndCoalesce(l, gmask, prep, bytes, mono, strideOK, stride, wrapped)
}

// memScanReg generates addresses for a Method-B access (a register carries
// the full, possibly tagged, address). The pointer tag comes from the first
// active lane's untruncated value, exactly as in memGenRef; tag-stripped
// addresses fit in 48 bits, so per-lane spans can never wrap uint64.
func (c *coreState) memScanReg(w *warp, e *memPlan, gmask uint64, prep *memPrep, bytes uint64) {
	lanes := prep.lanes
	hasOff := e.hasOff
	var (
		minA     = ^uint64(0)
		maxA     uint64
		mono     = true
		strideOK = true
		stride   int64
		prev     uint64
	)
	for i, ln := range lanes {
		v := uint64(e.p0.eval(w, int(ln)))
		if hasOff {
			v += uint64(e.p1.eval(w, int(ln)))
		}
		if i == 0 {
			prep.ptr = v
		}
		a := core.Addr(v)
		prep.addrs[ln] = a
		prep.offs[ln] = 0
		if a < minA {
			minA = a
		}
		if hi := a + bytes - 1; hi > maxA {
			maxA = hi
		}
		if i == 1 {
			if a < prev {
				mono = false
			} else {
				stride = int64(a - prev)
			}
		} else if i > 1 {
			if a < prev {
				mono = false
			} else if int64(a-prev) != stride {
				strideOK = false
			}
		}
		prev = a
	}
	prep.minAddr, prep.maxAddr = minA, maxA
	prep.minOfs, prep.maxOfs = 0, int64(bytes)-1
	c.classifyAndCoalesce(w.wg.run.launch, gmask, prep, bytes, mono, strideOK, stride, false)
}

// classifyAndCoalesce assigns the transaction class from the scan evidence
// and produces the coalesced line sequence — arithmetically when the shape
// makes that provably exact, through the reference ACU loop otherwise. The
// emitted lines are identical to memGenRef's in content and order (order
// matters: memAccess mutates cache, TLB, and DRAM state per line).
func (c *coreState) classifyAndCoalesce(l *driver.Launch, gmask uint64, prep *memPrep, bytes uint64, mono, strideOK bool, stride int64, wrapped bool) {
	lineBytes := uint64(c.gpu.cfg.L1D.LineBytes)
	lanes := prep.lanes
	class := memClassIndirect
	if mono && strideOK {
		switch {
		case len(lanes) == 1 || stride == 0:
			class = memClassUniform
		case stride == int64(bytes):
			class = memClassUnit
		case stride > 0:
			class = memClassStrided
		}
	}
	prep.class, prep.stride, prep.wrapped = class, stride, wrapped

	// Arithmetic line generation is exact only for monotone, wrap-free
	// address vectors under coalescing; anything else — including a line
	// walk that could step past the top of the address space — replays the
	// reference loop over the already-generated addresses.
	if l.NoCoalesce || class == memClassIndirect || wrapped ||
		prep.maxAddr >= ^uint64(0)-lineBytes {
		prep.nLines = c.coalesceRef(l, gmask, prep, bytes)
		return
	}
	lineMask := ^(lineBytes - 1)
	switch class {
	case memClassUniform:
		// Every lane repeats the same span: lane 0's line walk, dedup-free.
		a := prep.addrs[lanes[0]]
		nl := 0
		for la := a & lineMask; la <= (a+bytes-1)&lineMask && nl < len(prep.lines); la += lineBytes {
			prep.lines[nl] = la
			nl++
		}
		prep.nLines = nl
	case memClassUnit:
		// The warp touches every byte of [addr0, maxAddr], so every line in
		// between appears exactly once, ascending.
		last := prep.maxAddr & lineMask
		nl := 0
		for la := prep.addrs[lanes[0]] & lineMask; nl < len(prep.lines); la += lineBytes {
			prep.lines[nl] = la
			nl++
			if la == last {
				break
			}
		}
		prep.nLines = nl
	default: // memClassStrided
		// Monotone addresses: a duplicate line can only repeat the one just
		// emitted, so dedup-against-last reproduces the full-array dedup.
		const noLine = 1 // not line-aligned: never equals a real line address
		lastEmit := uint64(noLine)
		nl := 0
		for _, ln := range lanes {
			a := prep.addrs[ln]
			for la := a & lineMask; la <= (a+bytes-1)&lineMask; la += lineBytes {
				if la != lastEmit && nl < len(prep.lines) {
					prep.lines[nl] = la
					lastEmit = la
					nl++
				}
			}
		}
		prep.nLines = nl
	}
}

// coalesceRef is the reference ACU loop (see memGenRef) run over
// already-generated addresses: per active lane ascending, per touched line,
// full-array dedup unless NoCoalesce, capped at len(prep.lines).
func (c *coreState) coalesceRef(l *driver.Launch, gmask uint64, prep *memPrep, bytes uint64) int {
	lineMask := ^uint64(int64(c.gpu.cfg.L1D.LineBytes - 1))
	lines := &prep.lines
	nLines := 0
	for lanes := gmask; lanes != 0; {
		lane := bits.TrailingZeros64(lanes)
		lanes &^= 1 << uint(lane)
		a := prep.addrs[lane]
		for la := a & lineMask; la <= (a+bytes-1)&lineMask; la += uint64(c.gpu.cfg.L1D.LineBytes) {
			found := false
			if !l.NoCoalesce {
				for i := 0; i < nLines; i++ {
					if lines[i] == la {
						found = true
						break
					}
				}
			}
			if !found && nLines < len(lines) {
				lines[nLines] = la
				nLines++
			}
		}
	}
	return nLines
}

// rangeMapped reports whether the transaction's whole byte range is provably
// on mapped pages: a plan-classified, wrap-free address vector whose span
// covers few enough pages to sweep. Exact on success — with no per-lane
// wrap, every lane's interval lies inside [minAddr, maxAddr]. A false
// return means "take the per-lane walk", not "unmapped".
func (c *coreState) rangeMapped(prep *memPrep) bool {
	if prep.class == memClassRef || prep.wrapped {
		return false
	}
	lo, hi := prep.minAddr, prep.maxAddr
	if hi < lo || hi/driver.PageBytes-lo/driver.PageBytes >= 64 {
		return false
	}
	return c.gpu.dev.MappedRange(lo, hi)
}

// batchLoad services a dense unit-stride load whose bytes land in one
// backing chunk through a single span: lane i reads span[i*bytes:]. A false
// return (chunk straddle, unsupported width) sends the caller to the
// per-lane path. The same bytes are read with the same widening rules as
// loadValue, so the register file ends up bit-identical.
func (c *coreState) batchLoad(w *warp, in *kernel.Instr, prep *memPrep) bool {
	lanes := prep.lanes
	sp := c.gpu.dev.Mem.Span(prep.addrs[lanes[0]], len(lanes)*in.Bytes)
	if sp == nil {
		return false
	}
	dst, nregs := in.Dst, w.nregs
	flat := w.flat
	switch {
	case in.F32 && in.Bytes == 4:
		for i, ln := range lanes {
			raw := binary.LittleEndian.Uint32(sp[i*4:])
			flat[int(ln)*nregs+dst] = kernel.F2B(float64(math.Float32frombits(raw)))
		}
	case in.Bytes == 8:
		for i, ln := range lanes {
			flat[int(ln)*nregs+dst] = int64(binary.LittleEndian.Uint64(sp[i*8:]))
		}
	case in.Bytes == 4:
		for i, ln := range lanes {
			flat[int(ln)*nregs+dst] = int64(int32(binary.LittleEndian.Uint32(sp[i*4:])))
		}
	case in.Bytes == 2:
		for i, ln := range lanes {
			flat[int(ln)*nregs+dst] = int64(binary.LittleEndian.Uint16(sp[i*2:]))
		}
	case in.Bytes == 1:
		for i, ln := range lanes {
			flat[int(ln)*nregs+dst] = int64(sp[i])
		}
	default:
		return false
	}
	return true
}

// batchStore is batchLoad's store dual: lane values narrow into one span,
// byte-identical to per-lane storeValue calls.
func (c *coreState) batchStore(w *warp, in *kernel.Instr, prep *memPrep) bool {
	lanes := prep.lanes
	sp := c.gpu.dev.Mem.Span(prep.addrs[lanes[0]], len(lanes)*in.Bytes)
	if sp == nil {
		return false
	}
	p2 := prep.plan.pStore
	switch {
	case in.F32 && in.Bytes == 4:
		for i, ln := range lanes {
			raw := math.Float32bits(float32(kernel.B2F(p2.eval(w, int(ln)))))
			binary.LittleEndian.PutUint32(sp[i*4:], raw)
		}
	case in.Bytes == 8:
		for i, ln := range lanes {
			binary.LittleEndian.PutUint64(sp[i*8:], uint64(p2.eval(w, int(ln))))
		}
	case in.Bytes == 4:
		for i, ln := range lanes {
			binary.LittleEndian.PutUint32(sp[i*4:], uint32(p2.eval(w, int(ln))))
		}
	case in.Bytes == 2:
		for i, ln := range lanes {
			binary.LittleEndian.PutUint16(sp[i*2:], uint16(p2.eval(w, int(ln))))
		}
	case in.Bytes == 1:
		for i, ln := range lanes {
			sp[i] = byte(p2.eval(w, int(ln)))
		}
	default:
		return false
	}
	return true
}
