package sim

import (
	"math"
	"math/bits"

	"gpushield/internal/core"
	"gpushield/internal/kernel"
	"gpushield/internal/memsys"
)

// stackEntry is one SIMT reconvergence-stack record. A divergent branch
// pushes the reconvergence state and the not-taken path; reaching the
// reconvergence PC pops the next entry (the standard TOS scheme).
type stackEntry struct {
	reconvPC int
	pc       int
	mask     uint64
}

// warp is one resident sub-workgroup context.
type warp struct {
	wg     *workgroup
	inWG   int // warp index within the workgroup
	slot   int // index in the owning core's warps / sched arrays
	pc     int
	active uint64         // live, non-exited lanes currently enabled
	exited uint64         // lanes retired via exit
	code   []kernel.Instr // the kernel's instruction stream (fetch shortcut)
	stack  []stackEntry
	regs   [][]int64 // [lane][reg]
	flat   []int64   // the backing array of regs: [lane*nregs + reg]
	nregs  int

	readyAt   uint64
	atBarrier bool
	done      bool

	// sbLeft counts superblock instructions whose functional effects were
	// applied ahead of schedule and whose issues are still owed: while > 0,
	// each selection of this warp is a replay issue (see superblock.go).
	sbLeft int

	// Lowered-superblock cache: operand plans and specialized forms are
	// constant for a warp's lifetime (launch args, workgroup id, and the
	// lane-affine specials are fixed at placement), so every block is
	// lowered at most once per warp. sbIdx is indexed by pc and holds
	// 1+entry-index into sbEnt (0 = not lowered yet); placeWorkgroup
	// clears it when the warp is reused, but the entries' backing arrays
	// survive so steady-state relowering allocates nothing.
	sbIdx []int32
	sbEnt []sbEntry

	// Active-lane cache for execSBFast: register-row offsets and lane
	// indices of the lanes in sbMask, rebuilt only when the active mask
	// diverges from it. sbMask = 0 (placeWorkgroup) forces a rebuild —
	// a warp with no active lanes never reaches the superblock path.
	sbMask  uint64
	sbOffs  []int
	sbLanes []int64

	// Lowered memory-plan cache (the LSU analogue of sbIdx/sbEnt, see
	// memplan.go): mpIdx is indexed by pc and holds 1+entry-index into
	// mpEnt (0 = not lowered yet); placeWorkgroup clears it when the warp
	// is reused, but the entries' backing arrays survive so steady-state
	// relowering allocates nothing.
	mpIdx []int32
	mpEnt []memPlan

	// Dense active-lane cache shared by every memory pc: the lane indices
	// of memMask, rebuilt only when the guard mask diverges from it.
	// memMask = 0 (placeWorkgroup) forces a rebuild — a memory instruction
	// with no active lanes never reaches address generation.
	memMask  uint64
	memLanes []int32
}

// workgroup is one resident thread block.
type workgroup struct {
	run     *kernelRun
	id      int
	warps   []*warp
	shared  []byte
	arrived int // warps waiting at the barrier
	live    int // warps not yet done
}

// coreState is one shader core (SM): warp contexts, private L1D and L1 TLB,
// the LSU occupancy clock, and the bounds-checking unit.
type coreState struct {
	id    int
	gpu   *GPU
	l1d   *memsys.Cache
	l1tlb *memsys.TLB
	bcu   *core.BCU

	wgs   []*workgroup
	warps []*warp
	// sched is the scheduler's struct-of-arrays view of warp issue state,
	// parallel to warps: sched[i] is warp i's next possible issue cycle,
	// with done and at-barrier folded in as farFuture. selectWarp scans
	// only this array (one cache line per eight warps) instead of chasing
	// every warp struct; every mutation of readyAt/done/atBarrier keeps it
	// in sync (see wake).
	sched []uint64
	// wgPool is the core's workgroup arena: retired shells (warp structs,
	// register slabs, shared-memory backing) recycled by placeWorkgroup.
	// Capacity is bounded by MaxWGsPerCore.
	wgPool      []*workgroup
	threadsUsed int
	lsuFreeAt   uint64
	lastWarp    int // greedy-then-oldest cursor
	rrRun       int // round-robin kernel cursor for dispatch

	// sbPlans is reusable scratch for superblock bulk execution: one operand
	// plan triple per block instruction (superblock.go).
	sbPlans [][3]srcPlan

	// sPrep is the core's memory-instruction scratch: execMem reuses it
	// instead of zeroing a fresh ~1.6KB memPrep per instruction. Safe
	// because memGen overwrites every field memCommit reads (only
	// active-lane entries of the big arrays are ever consumed), and a core
	// never has two memory instructions in flight.
	sPrep memPrep
}

// placeWorkgroup instantiates workgroup wgID of run r on this core, reusing
// a recycled workgroup shell (warp structs, register slabs, shared-memory
// backing) from the core's arena when one with the right warp count is
// available. Recycled register files and shared memory are zeroed before
// reuse: a fresh workgroup must observe exactly the all-zero state a newly
// allocated one would — both for equivalence with the allocating path and so
// one tenant's register or scratchpad contents can never leak into another
// tenant's launch on a shared GPU (the service layer runs many tenants over
// one simulator).
func (c *coreState) placeWorkgroup(r *kernelRun, wgID int, now uint64) {
	l := r.launch
	ww := c.gpu.cfg.WarpWidth
	nw := (l.Block + ww - 1) / ww
	nregs := l.Kernel.NumRegs
	var wg *workgroup
	for i := len(c.wgPool) - 1; i >= 0; i-- {
		if len(c.wgPool[i].warps) == nw {
			wg = c.wgPool[i]
			c.wgPool = append(c.wgPool[:i], c.wgPool[i+1:]...)
			break
		}
	}
	if wg == nil {
		wg = &workgroup{warps: make([]*warp, 0, nw)}
		for wi := 0; wi < nw; wi++ {
			wg.warps = append(wg.warps, &warp{})
		}
	}
	wg.run, wg.id, wg.live, wg.arrived = r, wgID, nw, 0
	if sb := l.Kernel.SharedBytes; sb > 0 {
		if cap(wg.shared) >= sb {
			wg.shared = wg.shared[:sb]
			clear(wg.shared)
		} else {
			wg.shared = make([]byte, sb)
		}
	} else {
		wg.shared = wg.shared[:0]
	}
	for wi, w := range wg.warps {
		var mask uint64
		for lane := 0; lane < ww; lane++ {
			if wi*ww+lane < l.Block {
				mask |= 1 << uint(lane)
			}
		}
		w.wg, w.inWG, w.pc, w.active, w.exited = wg, wi, 0, mask, 0
		w.code = l.Kernel.Code
		w.stack = w.stack[:0]
		w.readyAt, w.atBarrier, w.done = now, false, false
		w.sbLeft, w.sbEnt, w.sbMask = 0, w.sbEnt[:0], 0
		w.mpEnt, w.memMask = w.mpEnt[:0], 0
		if nc := len(l.Kernel.Code); cap(w.sbIdx) >= nc {
			w.sbIdx = w.sbIdx[:nc]
			clear(w.sbIdx)
		} else {
			w.sbIdx = make([]int32, nc)
		}
		if nc := len(l.Kernel.Code); cap(w.mpIdx) >= nc {
			w.mpIdx = w.mpIdx[:nc]
			clear(w.mpIdx)
		} else {
			w.mpIdx = make([]int32, nc)
		}
		n := ww * nregs
		reslice := w.nregs != nregs
		if cap(w.flat) >= n {
			w.flat = w.flat[:n]
			clear(w.flat)
		} else {
			w.flat = make([]int64, n)
			reslice = true
		}
		w.nregs = nregs
		if w.regs == nil {
			w.regs = make([][]int64, ww)
			reslice = true
		}
		if reslice {
			for lane := 0; lane < ww; lane++ {
				w.regs[lane] = w.flat[lane*nregs : (lane+1)*nregs]
			}
		}
		w.slot = len(c.warps)
		c.warps = append(c.warps, w)
		c.sched = append(c.sched, now)
	}
	c.wgs = append(c.wgs, wg)
	c.threadsUsed += l.Block
	// Fresh warps are ready immediately: wake the core.
	c.gpu.wakes.earlier(c.id, now)
}

// removeWorkgroup frees a completed (or aborted) workgroup's resources and
// parks the shell in the core's arena for reuse. The arena is capacity-
// bounded by the core's concurrent-workgroup limit (a core can never have
// retired more shells than it can host). The run pointer is dropped so a
// pooled shell does not keep a finished launch alive.
func (c *coreState) removeWorkgroup(wg *workgroup) {
	for i, x := range c.wgs {
		if x == wg {
			c.wgs = append(c.wgs[:i], c.wgs[i+1:]...)
			break
		}
	}
	kept := c.warps[:0]
	sched := c.sched[:0]
	for i, w := range c.warps {
		if w.wg != wg {
			w.slot = len(kept)
			kept = append(kept, w)
			sched = append(sched, c.sched[i])
		}
	}
	c.warps, c.sched = kept, sched
	c.threadsUsed -= wg.run.launch.Block
	if c.lastWarp >= len(c.warps) {
		c.lastWarp = 0
	}
	if len(c.wgPool) < c.gpu.cfg.MaxWGsPerCore {
		wg.run = nil
		c.wgPool = append(c.wgPool, wg)
	}
	// Freed capacity may admit a pending workgroup; run dispatch this step.
	c.gpu.dispatchNeeded = true
}

// reset returns the core to its just-built state for GPU.Reset: private L1D
// and L1 TLB and the BCU empty with zeroed statistics, no resident
// workgroups, and zeroed scheduler cursors and LSU clock.
func (c *coreState) reset() {
	c.l1d.Reset()
	c.l1tlb.Reset()
	if c.bcu != nil {
		c.bcu.Reset()
	}
	clear(c.wgs)
	clear(c.warps)
	c.wgs, c.warps, c.sched = c.wgs[:0], c.warps[:0], c.sched[:0]
	c.threadsUsed, c.lsuFreeAt, c.lastWarp, c.rrRun = 0, 0, 0, 0
}

// issuePick is the outcome of one scheduler scan: the chosen warp (w == nil
// when nothing can issue this cycle) and the wake bookkeeping the scan
// computed for free — the earliest future readyAt, or lsuFreeAt for a ready
// warp stalled behind the LSU.
type issuePick struct {
	idx  int
	w    *warp
	in   *kernel.Instr
	next uint64
}

// selectWarp scans for the next instruction to issue without committing to
// it, greedy-then-oldest: the warp issued last keeps priority while it is
// ready, which preserves the RCache temporal locality the paper relies on.
//
// The scan's only mutation is reconvergence-stack normalization, which is
// idempotent — re-running the scan from the same cycle picks the same warp.
func (c *coreState) selectWarp(now uint64) issuePick {
	n := len(c.warps)
	pick := issuePick{idx: -1, next: farFuture}
	sched := c.sched
	idx := c.lastWarp
	for k := 0; k < n; k++ {
		if r := sched[idx]; r > now {
			// Not ready: done and at-barrier warps carry farFuture here and
			// so never advance pick.next.
			if r < pick.next {
				pick.next = r
			}
		} else {
			w := c.warps[idx]
			in := &w.code[w.reconverge()]
			if in.Op.IsMemory() && in.Space != kernel.SpaceShared && c.lsuFreeAt > now {
				if c.lsuFreeAt < pick.next {
					pick.next = c.lsuFreeAt
				}
			} else {
				pick.idx, pick.w, pick.in = idx, w, in
				return pick
			}
		}
		if idx++; idx == n {
			idx = 0
		}
	}
	return pick
}

// wake records the warp's next possible issue cycle in both the warp and the
// scheduler's scan array. Transitions of done/atBarrier maintain the array
// directly (farFuture while blocked).
func (c *coreState) wake(w *warp, t uint64) {
	w.readyAt = t
	c.sched[w.slot] = t
}

// tryIssue issues at most one instruction on this core at cycle now.
//
// It also maintains the core's wake time. On an issue the core may issue
// again next cycle, so the wake moves to now+1. On a failed scan the pass
// has already seen every warp, so the exact next opportunity is recorded
// for free; until then the scheduler never looks at this core.
func (c *coreState) tryIssue(now uint64) bool {
	p := c.selectWarp(now)
	if p.w == nil {
		c.gpu.wakes.set(c.id, p.next)
		return false
	}
	c.lastWarp = p.idx
	c.execute(p.w, p.in, now)
	c.gpu.wakes.set(c.id, now+1)
	return true
}

// reconverge pops reconvergence-stack entries whose point the warp reached
// and returns the (possibly updated) PC.
func (w *warp) reconverge() int {
	for len(w.stack) > 0 {
		top := w.stack[len(w.stack)-1]
		if w.pc != top.reconvPC {
			break
		}
		w.stack = w.stack[:len(w.stack)-1]
		w.pc = top.pc
		w.active = top.mask &^ w.exited
	}
	return w.pc
}

// guardMask returns the lanes that execute the instruction: active lanes
// whose guard register (if any) passes.
func (w *warp) guardMask(in *kernel.Instr) uint64 {
	if in.Pred < 0 {
		return w.active
	}
	var m uint64
	for lanes := w.active; lanes != 0; {
		lane := bits.TrailingZeros64(lanes)
		lanes &^= 1 << uint(lane)
		v := w.flat[lane*w.nregs+in.Pred] != 0
		if v != in.PNeg {
			m |= 1 << uint(lane)
		}
	}
	return m
}

// execute runs one warp instruction: functional semantics plus timing.
func (c *coreState) execute(w *warp, in *kernel.Instr, now uint64) {
	if w.sbLeft > 0 {
		// Replay issue of a pre-executed superblock instruction: timing and
		// stats only, the arithmetic already happened at block entry.
		c.replayIssue(w, in, now)
		return
	}
	r := w.wg.run
	st := r.stats
	gmask := w.guardMask(in)
	st.WarpInstrs++
	st.ThreadInstrs += uint64(bits.OnesCount64(gmask))

	switch {
	case in.Op.IsMemory():
		c.execMem(w, in, gmask, now)
		return

	case in.Op == kernel.OpBar:
		w.pc++
		w.atBarrier = true
		c.sched[w.slot] = farFuture
		w.wg.arrived++
		c.releaseBarrier(w.wg, now)
		return

	case in.Op == kernel.OpExit:
		w.exited |= gmask
		w.active &^= gmask
		w.pc++
		if w.active == 0 {
			// Resume any outstanding paths; otherwise the warp retires.
			for len(w.stack) > 0 && w.active == 0 {
				top := w.stack[len(w.stack)-1]
				w.stack = w.stack[:len(w.stack)-1]
				w.pc = top.pc
				w.active = top.mask &^ w.exited
			}
			if w.active == 0 {
				c.retireWarp(w, now)
				return
			}
		}
		c.wake(w, now+1)
		return

	case in.Op.IsBranch():
		c.execBranch(w, in, gmask, now)
		return
	}

	// ALU path. An unpredicated ALU instruction that begins a pre-decoded
	// superblock executes the whole block's arithmetic now; this issue then
	// completes normally and the rest of the block replays (superblock.go).
	if lens := r.sbLens; lens != nil && lens[w.pc] >= sbMinLen {
		c.execSuperblock(w, int(lens[w.pc]), now)
	} else {
		c.execALUWarp(w, in, gmask)
	}
	w.pc++
	c.wake(w, now+uint64(c.gpu.aluLat[in.Op]))
}

// retireWarp marks the warp done and completes its workgroup when it was
// the last one.
func (c *coreState) retireWarp(w *warp, now uint64) {
	if w.done {
		return
	}
	w.done = true
	c.sched[w.slot] = farFuture
	wg := w.wg
	wg.live--
	c.releaseBarrier(wg, now)
	if wg.live == 0 {
		// Capture the run first: removeWorkgroup may park the shell in the
		// arena, which drops its run pointer.
		run := wg.run
		c.removeWorkgroup(wg)
		run.liveWGs--
	}
}

// releaseBarrier opens the workgroup barrier once every live warp arrived.
func (c *coreState) releaseBarrier(wg *workgroup, now uint64) {
	if wg.live == 0 || wg.arrived < wg.live {
		return
	}
	wg.arrived = 0
	for _, w := range wg.warps {
		if !w.done && w.atBarrier {
			w.atBarrier = false
			c.wake(w, now+1)
		}
	}
	// Released warps are ready next cycle; wake the core for them.
	c.gpu.wakes.earlier(c.id, now+1)
}

func (c *coreState) execBranch(w *warp, in *kernel.Instr, gmask uint64, now uint64) {
	cfg := &c.gpu.cfg
	c.wake(w, now+uint64(cfg.ALULatency))
	switch in.Op {
	case kernel.OpBraUni:
		w.pc = in.Label
	case kernel.OpBraAny:
		if gmask != 0 {
			w.pc = in.Label
		} else {
			w.pc++
		}
	case kernel.OpBraAll:
		if gmask == w.active && w.active != 0 {
			w.pc = in.Label
		} else {
			w.pc++
		}
	case kernel.OpBraDiv:
		taken := gmask
		switch {
		case taken == w.active:
			w.pc = in.Label
		case taken == 0:
			w.pc++
		default:
			// Push reconvergence state, then the fall-through path; execute
			// the taken path first.
			w.stack = append(w.stack,
				stackEntry{reconvPC: in.Reconv, pc: in.Reconv, mask: w.active},
				stackEntry{reconvPC: in.Reconv, pc: w.pc + 1, mask: w.active &^ taken},
			)
			w.active = taken
			w.pc = in.Label
		}
	}
}

// srcPlan is a source operand resolved once per warp instruction instead of
// once per lane. Every operand kind is either a per-lane register read
// (reg >= 0) or an affine function of the lane id, base + slope*lane:
// immediates and params are lane-invariant (slope 0), and each special
// register is affine by construction (tid = inWG*ww + lane, etc.).
type srcPlan struct {
	reg   int
	base  int64
	slope int64
}

func (p *srcPlan) eval(w *warp, lane int) int64 {
	if p.reg >= 0 {
		return w.flat[lane*w.nregs+p.reg]
	}
	return p.base + p.slope*int64(lane)
}

// plan resolves one operand of w's current instruction into a srcPlan. It
// must agree exactly with operand()/special() — the golden-stats tests lock
// that equivalence.
func (c *coreState) plan(w *warp, op kernel.Operand) srcPlan {
	switch op.Kind {
	case kernel.OperandReg:
		return srcPlan{reg: op.Reg}
	case kernel.OperandImm:
		return srcPlan{reg: -1, base: op.Imm}
	case kernel.OperandParam:
		return srcPlan{reg: -1, base: int64(w.wg.run.launch.Args[op.Param])}
	case kernel.OperandSpecial:
		l := w.wg.run.launch
		switch op.Special {
		case kernel.SpecTIDX:
			return srcPlan{reg: -1, base: int64(w.inWG * c.gpu.cfg.WarpWidth), slope: 1}
		case kernel.SpecCTAIDX:
			return srcPlan{reg: -1, base: int64(w.wg.id)}
		case kernel.SpecNTIDX:
			return srcPlan{reg: -1, base: int64(l.Block)}
		case kernel.SpecNTIDY, kernel.SpecNCTAIDY:
			return srcPlan{reg: -1, base: 1}
		case kernel.SpecNCTAIDX:
			return srcPlan{reg: -1, base: int64(l.Grid)}
		case kernel.SpecLaneID:
			return srcPlan{reg: -1, slope: 1}
		case kernel.SpecWarpID:
			return srcPlan{reg: -1, base: int64(w.inWG)}
		case kernel.SpecGlobalTID:
			return srcPlan{reg: -1,
				base:  int64(w.wg.id)*int64(l.Block) + int64(w.inWG*c.gpu.cfg.WarpWidth),
				slope: 1}
		case kernel.SpecGlobalSize:
			return srcPlan{reg: -1, base: int64(l.Grid) * int64(l.Block)}
		}
		return srcPlan{reg: -1} // SpecTIDY, SpecCTAIDY, unknown
	}
	return srcPlan{reg: -1} // OperandNone
}

// operand evaluates one source operand for a lane.
func (c *coreState) operand(w *warp, op kernel.Operand, lane int) int64 {
	switch op.Kind {
	case kernel.OperandReg:
		return w.regs[lane][op.Reg]
	case kernel.OperandImm:
		return op.Imm
	case kernel.OperandParam:
		return int64(w.wg.run.launch.Args[op.Param])
	case kernel.OperandSpecial:
		return c.special(w, op.Special, lane)
	}
	return 0
}

func (c *coreState) special(w *warp, s kernel.Special, lane int) int64 {
	l := w.wg.run.launch
	ww := c.gpu.cfg.WarpWidth
	tid := int64(w.inWG*ww + lane)
	switch s {
	case kernel.SpecTIDX:
		return tid
	case kernel.SpecTIDY, kernel.SpecCTAIDY:
		return 0
	case kernel.SpecCTAIDX:
		return int64(w.wg.id)
	case kernel.SpecNTIDX:
		return int64(l.Block)
	case kernel.SpecNTIDY, kernel.SpecNCTAIDY:
		return 1
	case kernel.SpecNCTAIDX:
		return int64(l.Grid)
	case kernel.SpecLaneID:
		return int64(lane)
	case kernel.SpecWarpID:
		return int64(w.inWG)
	case kernel.SpecGlobalTID:
		return int64(w.wg.id)*int64(l.Block) + tid
	case kernel.SpecGlobalSize:
		return int64(l.Grid) * int64(l.Block)
	}
	return 0
}

// execALUWarp executes one ALU instruction across all guarded lanes.
// Operands are resolved once per warp instruction (srcPlan), and for the
// common integer opcodes the opcode itself is dispatched once per warp with
// a dedicated lane loop, so the per-lane work is just operand reads and the
// arithmetic. Rare opcodes (divides, floating point, converts) fall back to
// the per-lane interpreter, which is the semantic reference.
func (c *coreState) execALUWarp(w *warp, in *kernel.Instr, gmask uint64) {
	var ps [3]srcPlan
	ps[0] = c.plan(w, in.Src[0])
	ps[1] = c.plan(w, in.Src[1])
	ps[2] = c.plan(w, in.Src[2])
	c.execALUWarpPlanned(w, in, gmask, &ps)
}

// execALUWarpPlanned is execALUWarp with the operand plans already resolved;
// superblock bulk execution resolves all plans up front and calls this per
// block instruction.
func (c *coreState) execALUWarpPlanned(w *warp, in *kernel.Instr, gmask uint64, ps *[3]srcPlan) {
	dst := in.Dst
	if dst < 0 {
		// Destination-less integer ALU ops have no architectural effect;
		// keep the reference path for exactness.
		for lanes := gmask; lanes != 0; {
			lane := bits.TrailingZeros64(lanes)
			lanes &^= 1 << uint(lane)
			execALU(w, in, lane, ps)
		}
		return
	}
	switch in.Op {
	case kernel.OpMov:
		for lanes := gmask; lanes != 0; {
			lane := bits.TrailingZeros64(lanes)
			lanes &^= 1 << uint(lane)
			w.flat[lane*w.nregs+dst] = ps[0].eval(w, lane)
		}
	case kernel.OpAdd:
		for lanes := gmask; lanes != 0; {
			lane := bits.TrailingZeros64(lanes)
			lanes &^= 1 << uint(lane)
			w.flat[lane*w.nregs+dst] = ps[0].eval(w, lane) + ps[1].eval(w, lane)
		}
	case kernel.OpSub:
		for lanes := gmask; lanes != 0; {
			lane := bits.TrailingZeros64(lanes)
			lanes &^= 1 << uint(lane)
			w.flat[lane*w.nregs+dst] = ps[0].eval(w, lane) - ps[1].eval(w, lane)
		}
	case kernel.OpMul:
		for lanes := gmask; lanes != 0; {
			lane := bits.TrailingZeros64(lanes)
			lanes &^= 1 << uint(lane)
			w.flat[lane*w.nregs+dst] = ps[0].eval(w, lane) * ps[1].eval(w, lane)
		}
	case kernel.OpMad:
		for lanes := gmask; lanes != 0; {
			lane := bits.TrailingZeros64(lanes)
			lanes &^= 1 << uint(lane)
			w.flat[lane*w.nregs+dst] = ps[0].eval(w, lane)*ps[1].eval(w, lane) + ps[2].eval(w, lane)
		}
	case kernel.OpMin:
		for lanes := gmask; lanes != 0; {
			lane := bits.TrailingZeros64(lanes)
			lanes &^= 1 << uint(lane)
			a, b := ps[0].eval(w, lane), ps[1].eval(w, lane)
			if b < a {
				a = b
			}
			w.flat[lane*w.nregs+dst] = a
		}
	case kernel.OpMax:
		for lanes := gmask; lanes != 0; {
			lane := bits.TrailingZeros64(lanes)
			lanes &^= 1 << uint(lane)
			a, b := ps[0].eval(w, lane), ps[1].eval(w, lane)
			if b > a {
				a = b
			}
			w.flat[lane*w.nregs+dst] = a
		}
	case kernel.OpAnd:
		for lanes := gmask; lanes != 0; {
			lane := bits.TrailingZeros64(lanes)
			lanes &^= 1 << uint(lane)
			w.flat[lane*w.nregs+dst] = ps[0].eval(w, lane) & ps[1].eval(w, lane)
		}
	case kernel.OpOr:
		for lanes := gmask; lanes != 0; {
			lane := bits.TrailingZeros64(lanes)
			lanes &^= 1 << uint(lane)
			w.flat[lane*w.nregs+dst] = ps[0].eval(w, lane) | ps[1].eval(w, lane)
		}
	case kernel.OpXor:
		for lanes := gmask; lanes != 0; {
			lane := bits.TrailingZeros64(lanes)
			lanes &^= 1 << uint(lane)
			w.flat[lane*w.nregs+dst] = ps[0].eval(w, lane) ^ ps[1].eval(w, lane)
		}
	case kernel.OpShl:
		for lanes := gmask; lanes != 0; {
			lane := bits.TrailingZeros64(lanes)
			lanes &^= 1 << uint(lane)
			w.flat[lane*w.nregs+dst] = ps[0].eval(w, lane) << uint64(ps[1].eval(w, lane)&63)
		}
	case kernel.OpShr:
		for lanes := gmask; lanes != 0; {
			lane := bits.TrailingZeros64(lanes)
			lanes &^= 1 << uint(lane)
			w.flat[lane*w.nregs+dst] = int64(uint64(ps[0].eval(w, lane)) >> uint64(ps[1].eval(w, lane)&63))
		}
	case kernel.OpSetLT:
		for lanes := gmask; lanes != 0; {
			lane := bits.TrailingZeros64(lanes)
			lanes &^= 1 << uint(lane)
			w.flat[lane*w.nregs+dst] = b2i(ps[0].eval(w, lane) < ps[1].eval(w, lane))
		}
	case kernel.OpSetLE:
		for lanes := gmask; lanes != 0; {
			lane := bits.TrailingZeros64(lanes)
			lanes &^= 1 << uint(lane)
			w.flat[lane*w.nregs+dst] = b2i(ps[0].eval(w, lane) <= ps[1].eval(w, lane))
		}
	case kernel.OpSetEQ:
		for lanes := gmask; lanes != 0; {
			lane := bits.TrailingZeros64(lanes)
			lanes &^= 1 << uint(lane)
			w.flat[lane*w.nregs+dst] = b2i(ps[0].eval(w, lane) == ps[1].eval(w, lane))
		}
	case kernel.OpSetNE:
		for lanes := gmask; lanes != 0; {
			lane := bits.TrailingZeros64(lanes)
			lanes &^= 1 << uint(lane)
			w.flat[lane*w.nregs+dst] = b2i(ps[0].eval(w, lane) != ps[1].eval(w, lane))
		}
	case kernel.OpSetGT:
		for lanes := gmask; lanes != 0; {
			lane := bits.TrailingZeros64(lanes)
			lanes &^= 1 << uint(lane)
			w.flat[lane*w.nregs+dst] = b2i(ps[0].eval(w, lane) > ps[1].eval(w, lane))
		}
	case kernel.OpSetGE:
		for lanes := gmask; lanes != 0; {
			lane := bits.TrailingZeros64(lanes)
			lanes &^= 1 << uint(lane)
			w.flat[lane*w.nregs+dst] = b2i(ps[0].eval(w, lane) >= ps[1].eval(w, lane))
		}
	case kernel.OpSelp:
		for lanes := gmask; lanes != 0; {
			lane := bits.TrailingZeros64(lanes)
			lanes &^= 1 << uint(lane)
			v := ps[1].eval(w, lane)
			if ps[2].eval(w, lane) != 0 {
				v = ps[0].eval(w, lane)
			}
			w.flat[lane*w.nregs+dst] = v
		}
	default:
		for lanes := gmask; lanes != 0; {
			lane := bits.TrailingZeros64(lanes)
			lanes &^= 1 << uint(lane)
			execALU(w, in, lane, ps)
		}
	}
}

// execALU applies the functional semantics of an ALU instruction to one
// lane, reading sources through pre-resolved plans. Division by zero yields
// zero (GPUs do not trap).
func execALU(w *warp, in *kernel.Instr, lane int, ps *[3]srcPlan) {
	ev := func(i int) int64 { return ps[i].eval(w, lane) }
	var v int64
	switch in.Op {
	case kernel.OpMov:
		v = ev(0)
	case kernel.OpAdd:
		v = ev(0) + ev(1)
	case kernel.OpSub:
		v = ev(0) - ev(1)
	case kernel.OpMul:
		v = ev(0) * ev(1)
	case kernel.OpMad:
		v = ev(0)*ev(1) + ev(2)
	case kernel.OpDiv:
		if d := ev(1); d != 0 {
			v = ev(0) / d
		}
	case kernel.OpRem:
		if d := ev(1); d != 0 {
			v = ev(0) % d
		}
	case kernel.OpMin:
		a, b := ev(0), ev(1)
		v = a
		if b < a {
			v = b
		}
	case kernel.OpMax:
		a, b := ev(0), ev(1)
		v = a
		if b > a {
			v = b
		}
	case kernel.OpAnd:
		v = ev(0) & ev(1)
	case kernel.OpOr:
		v = ev(0) | ev(1)
	case kernel.OpXor:
		v = ev(0) ^ ev(1)
	case kernel.OpShl:
		v = ev(0) << uint64(ev(1)&63)
	case kernel.OpShr:
		v = int64(uint64(ev(0)) >> uint64(ev(1)&63))
	case kernel.OpSetLT:
		v = b2i(ev(0) < ev(1))
	case kernel.OpSetLE:
		v = b2i(ev(0) <= ev(1))
	case kernel.OpSetEQ:
		v = b2i(ev(0) == ev(1))
	case kernel.OpSetNE:
		v = b2i(ev(0) != ev(1))
	case kernel.OpSetGT:
		v = b2i(ev(0) > ev(1))
	case kernel.OpSetGE:
		v = b2i(ev(0) >= ev(1))
	case kernel.OpSelp:
		if ev(2) != 0 {
			v = ev(0)
		} else {
			v = ev(1)
		}
	case kernel.OpFAdd:
		v = kernel.F2B(kernel.B2F(ev(0)) + kernel.B2F(ev(1)))
	case kernel.OpFSub:
		v = kernel.F2B(kernel.B2F(ev(0)) - kernel.B2F(ev(1)))
	case kernel.OpFMul:
		v = kernel.F2B(kernel.B2F(ev(0)) * kernel.B2F(ev(1)))
	case kernel.OpFMad:
		v = kernel.F2B(kernel.B2F(ev(0))*kernel.B2F(ev(1)) + kernel.B2F(ev(2)))
	case kernel.OpFDiv:
		if d := kernel.B2F(ev(1)); d != 0 {
			v = kernel.F2B(kernel.B2F(ev(0)) / d)
		}
	case kernel.OpFSqrt:
		v = kernel.F2B(math.Sqrt(math.Abs(kernel.B2F(ev(0)))))
	case kernel.OpFMin:
		v = kernel.F2B(math.Min(kernel.B2F(ev(0)), kernel.B2F(ev(1))))
	case kernel.OpFMax:
		v = kernel.F2B(math.Max(kernel.B2F(ev(0)), kernel.B2F(ev(1))))
	case kernel.OpCvtIF:
		v = kernel.F2B(float64(ev(0)))
	case kernel.OpCvtFI:
		v = int64(kernel.B2F(ev(0)))
	case kernel.OpFSetLT:
		v = b2i(kernel.B2F(ev(0)) < kernel.B2F(ev(1)))
	case kernel.OpFSetLE:
		v = b2i(kernel.B2F(ev(0)) <= kernel.B2F(ev(1)))
	case kernel.OpFSetGT:
		v = b2i(kernel.B2F(ev(0)) > kernel.B2F(ev(1)))
	}
	if in.Dst >= 0 {
		w.regs[lane][in.Dst] = v
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// aluLatency maps an opcode to its execution latency class.
func aluLatency(cfg *Config, op kernel.Op) int {
	switch op {
	case kernel.OpMul, kernel.OpMad, kernel.OpFMul, kernel.OpFMad,
		kernel.OpCvtIF, kernel.OpCvtFI, kernel.OpFAdd, kernel.OpFSub:
		return cfg.MulLatency
	case kernel.OpDiv, kernel.OpRem, kernel.OpFDiv, kernel.OpFSqrt:
		return cfg.SFULatency
	default:
		return cfg.ALULatency
	}
}
