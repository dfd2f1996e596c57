package sim

import (
	"math/bits"

	"gpushield/internal/kernel"
)

// Superblock stepping (ROADMAP item 2a): at launch time each kernel's
// instruction stream is pre-decoded into superblocks — maximal straight-line
// runs of unpredicated ALU instructions containing no memory, branch,
// barrier, or exit instruction — and the functional effects of a whole
// superblock are applied in one dispatch when a warp issues its first
// instruction.
//
// Equivalence with per-instruction stepping is held by construction, not by
// side conditions: only the *functional* execution is hoisted. The scheduler
// still issues every instruction of the block at its exact serial cycle —
// the remaining instructions become "replay" issues that advance PC, charge
// the per-opcode latency, and bump WarpInstrs/ThreadInstrs, but skip operand
// planning and the per-lane arithmetic (already applied). Issue slots,
// contention between warps, wake times, watchdog and cancellation polls, the
// visited-cycle sequence, and partial stats at any abort point are therefore
// byte-identical to single-stepping.
//
// Hoisting the arithmetic is safe because ALU instructions are lane-local
// (each lane reads and writes only its own registers) and warp-private: no
// other warp, core, hook, or stat can observe a warp's registers mid-block.
// Runs are cut at every potential divergence-reconvergence target so the
// reconvergence stack can never pop (changing the active mask) inside a
// block, and predicated instructions are excluded so the guard mask of every
// block instruction is exactly the (constant) active mask.

// sbMinLen is the shortest run executed through the lowered path. Length-1
// runs are included: even a single instruction is cheaper through its cached
// lowered form than through the plain path, which re-resolves operand plans
// on every issue.
const sbMinLen = 1

// superblockLens returns, for each pc, the length of the maximal superblock
// run starting there (0 for instructions that cannot begin one). A branch
// into the middle of a pre-decoded run is harmless: the table holds suffix
// lengths, so the landing pc simply starts a shorter run.
func superblockLens(k *kernel.Kernel) []int32 {
	code := k.Code
	// Reconvergence targets: the only pcs where warp.reconverge can pop a
	// stack entry (every pushed reconvPC is some BraDiv's Reconv field).
	// A run must not flow across one, or a mid-block pop would change the
	// active mask the bulk execution already used.
	reconv := make([]bool, len(code)+1)
	for i := range code {
		if code[i].Op == kernel.OpBraDiv {
			if r := code[i].Reconv; r >= 0 && r < len(reconv) {
				reconv[r] = true
			}
		}
	}
	lens := make([]int32, len(code))
	for pc := len(code) - 1; pc >= 0; pc-- {
		in := &code[pc]
		if in.Op.IsMemory() || in.Op.IsBranch() ||
			in.Op == kernel.OpBar || in.Op == kernel.OpExit || in.Pred >= 0 {
			continue // lens[pc] stays 0: ends any run
		}
		lens[pc] = 1
		if pc+1 < len(code) && !reconv[pc+1] {
			lens[pc] += lens[pc+1]
		}
	}
	return lens
}

// superblocks returns the (cached) superblock table for k, or nil when
// superblock stepping is disabled.
func (g *GPU) superblocks(k *kernel.Kernel) []int32 {
	if g.noSuperblocks {
		return nil
	}
	if t, ok := g.sbCache[k]; ok {
		return t
	}
	// The cache is keyed by kernel identity; a long-lived GPU fed unbounded
	// distinct kernels (the fuzzer, the service catalog) must not grow
	// without bound.
	if len(g.sbCache) >= 256 {
		clear(g.sbCache)
	}
	t := superblockLens(k)
	g.sbCache[k] = t
	return t
}

// sbEntry is one lowered superblock cached on a warp: the specialized forms
// and, for blocks with a generic instruction, the resolved operand plans.
// Entries are recycled in place across warp reuse (the backing arrays
// survive truncation), so steady-state lowering allocates nothing.
type sbEntry struct {
	mixed bool
	low   []sbIn
	pl    [][3]srcPlan
}

// execSuperblock applies the functional effects of the n-instruction
// superblock starting at w.pc. Each block is lowered once per warp (operand
// plans and specialized instruction forms are constant for the warp's
// lifetime) and cached in the warp's per-pc block table, so loops re-enter
// every block — not just the most recent one — without relowering. Blocks
// in which every instruction lowered to a specialized form run lane-major
// (each lane's register row stays hot while the whole block executes on
// it); blocks with any generic instruction run instruction-major through
// the reference per-op loops. ALU instructions are lane-local, so both
// orders produce identical register state. The caller completes the first
// instruction's issue; the remaining n-1 become replay issues (w.sbLeft).
func (c *coreState) execSuperblock(w *warp, n int, now uint64) {
	ei := w.sbIdx[w.pc]
	if ei == 0 {
		ei = c.lowerSuperblock(w, w.code, n)
		w.sbIdx[w.pc] = ei
	}
	e := &w.sbEnt[ei-1]
	if !e.mixed {
		c.execSBFast(w, e.low)
	} else {
		for i := 0; i < n; i++ {
			c.execALUWarpPlanned(w, &w.code[w.pc+i], w.active, &e.pl[i])
		}
	}
	w.sbLeft = n - 1
}

// sbIn is one lowered superblock instruction. Specialized kinds encode the
// opcode together with its operand shape — register (a, b index the lane's
// register row) or const/affine (value = cb + sb*lane) — so the fast
// executor's inner loop is a dense switch with no per-operand branching.
type sbIn struct {
	k   int
	dst int
	a   int
	b   int
	cb  int64
	sb  int64
}

// Lowered instruction kinds. R suffixes are register operands, C suffixes
// const/affine operands. sbkGeneric marks an instruction (rare opcode or
// operand shape) left to the reference execALUWarpPlanned path.
const (
	sbkGeneric = iota
	sbkMovC
	sbkMovR
	sbkAddRR
	sbkAddRC
	sbkSubRR
	sbkMulRR
	sbkMulRC
	sbkAndRR
	sbkAndRC
	sbkOrRR
	sbkOrRC
	sbkXorRR
	sbkXorRC
	sbkShlRC
	sbkShrRC
	sbkSetLTRR
	sbkSetLERR
	sbkSetEQRR
	sbkSetNERR
	sbkSetGTRR
	sbkSetGERR
	sbkSetLTRC
	sbkSetLERC
	sbkSetEQRC
	sbkSetNERC
	sbkSetGTRC
	sbkSetGERC
)

// lowerSuperblock resolves operand plans for the block at w.pc and lowers
// each instruction into a fresh (or recycled) cache entry, returning its
// 1-based index for w.sbIdx. Plans are copied into the entry only when some
// instruction stayed generic.
func (c *coreState) lowerSuperblock(w *warp, code []kernel.Instr, n int) int32 {
	if cap(c.sbPlans) < n {
		c.sbPlans = make([][3]srcPlan, n+8)
	}
	plans := c.sbPlans[:n]
	if len(w.sbEnt) < cap(w.sbEnt) {
		w.sbEnt = w.sbEnt[:len(w.sbEnt)+1] // recycle a parked entry's backing
	} else {
		w.sbEnt = append(w.sbEnt, sbEntry{})
	}
	e := &w.sbEnt[len(w.sbEnt)-1]
	low := e.low[:0]
	if cap(low) < n {
		low = make([]sbIn, 0, n)
	}
	fast := true
	for i := 0; i < n; i++ {
		in := &code[w.pc+i]
		plans[i][0] = c.plan(w, in.Src[0])
		plans[i][1] = c.plan(w, in.Src[1])
		plans[i][2] = c.plan(w, in.Src[2])
		l := lowerSBInstr(in, &plans[i])
		if l.k == sbkGeneric {
			fast = false
		}
		low = append(low, l)
	}
	e.low = low
	e.mixed = !fast
	e.pl = e.pl[:0]
	if !fast {
		if cap(e.pl) < n {
			e.pl = make([][3]srcPlan, 0, n)
		}
		e.pl = e.pl[:n]
		copy(e.pl, plans)
	}
	return int32(len(w.sbEnt))
}

// lowerSBInstr maps one block instruction plus its resolved plans to a
// specialized form, folding constants where the result stays affine in the
// lane index (exact under two's-complement wrapping: distribution and
// negation are identities mod 2^64). Anything else stays generic.
func lowerSBInstr(in *kernel.Instr, ps *[3]srcPlan) sbIn {
	dst := in.Dst
	if dst < 0 {
		return sbIn{k: sbkGeneric}
	}
	p0, p1 := &ps[0], &ps[1]
	r0, r1 := p0.reg >= 0, p1.reg >= 0
	movC := func(cb, sb int64) sbIn { return sbIn{k: sbkMovC, dst: dst, cb: cb, sb: sb} }
	rr := func(k int) sbIn { return sbIn{k: k, dst: dst, a: p0.reg, b: p1.reg} }
	rc := func(k int, r *srcPlan, cp *srcPlan) sbIn {
		return sbIn{k: k, dst: dst, a: r.reg, cb: cp.base, sb: cp.slope}
	}
	switch in.Op {
	case kernel.OpMov:
		if r0 {
			return sbIn{k: sbkMovR, dst: dst, a: p0.reg}
		}
		return movC(p0.base, p0.slope)
	case kernel.OpAdd:
		switch {
		case r0 && r1:
			return rr(sbkAddRR)
		case r0:
			return rc(sbkAddRC, p0, p1)
		case r1:
			return rc(sbkAddRC, p1, p0)
		}
		return movC(p0.base+p1.base, p0.slope+p1.slope)
	case kernel.OpSub:
		switch {
		case r0 && r1:
			return rr(sbkSubRR)
		case r0:
			return sbIn{k: sbkAddRC, dst: dst, a: p0.reg, cb: -p1.base, sb: -p1.slope}
		case !r1:
			return movC(p0.base-p1.base, p0.slope-p1.slope)
		}
		return sbIn{k: sbkGeneric}
	case kernel.OpMul:
		switch {
		case r0 && r1:
			return rr(sbkMulRR)
		case r0:
			return rc(sbkMulRC, p0, p1)
		case r1:
			return rc(sbkMulRC, p1, p0)
		case p1.slope == 0:
			return movC(p0.base*p1.base, p0.slope*p1.base)
		case p0.slope == 0:
			return movC(p0.base*p1.base, p1.slope*p0.base)
		}
		return sbIn{k: sbkGeneric}
	case kernel.OpAnd, kernel.OpOr, kernel.OpXor:
		var kRR, kRC int
		switch in.Op {
		case kernel.OpAnd:
			kRR, kRC = sbkAndRR, sbkAndRC
		case kernel.OpOr:
			kRR, kRC = sbkOrRR, sbkOrRC
		default:
			kRR, kRC = sbkXorRR, sbkXorRC
		}
		switch {
		case r0 && r1:
			return rr(kRR)
		case r0:
			return rc(kRC, p0, p1)
		case r1:
			return rc(kRC, p1, p0)
		case p0.slope == 0 && p1.slope == 0:
			switch in.Op {
			case kernel.OpAnd:
				return movC(p0.base&p1.base, 0)
			case kernel.OpOr:
				return movC(p0.base|p1.base, 0)
			default:
				return movC(p0.base^p1.base, 0)
			}
		}
		return sbIn{k: sbkGeneric}
	case kernel.OpShl:
		if r0 && !r1 {
			return rc(sbkShlRC, p0, p1)
		}
		return sbIn{k: sbkGeneric}
	case kernel.OpShr:
		if r0 && !r1 {
			return rc(sbkShrRC, p0, p1)
		}
		return sbIn{k: sbkGeneric}
	case kernel.OpSetLT:
		return lowerSet(in, ps, sbkSetLTRR, sbkSetLTRC, sbkSetGTRC, dst)
	case kernel.OpSetLE:
		return lowerSet(in, ps, sbkSetLERR, sbkSetLERC, sbkSetGERC, dst)
	case kernel.OpSetEQ:
		return lowerSet(in, ps, sbkSetEQRR, sbkSetEQRC, sbkSetEQRC, dst)
	case kernel.OpSetNE:
		return lowerSet(in, ps, sbkSetNERR, sbkSetNERC, sbkSetNERC, dst)
	case kernel.OpSetGT:
		return lowerSet(in, ps, sbkSetGTRR, sbkSetGTRC, sbkSetLTRC, dst)
	case kernel.OpSetGE:
		return lowerSet(in, ps, sbkSetGERR, sbkSetGERC, sbkSetLERC, dst)
	}
	return sbIn{k: sbkGeneric}
}

// lowerSet lowers one comparison: kRR for two registers, kRC for reg-vs-
// const, kRCswap for the mirrored comparison when the constant is on the
// left (c OP r  ⇔  r mirror(OP) c).
func lowerSet(in *kernel.Instr, ps *[3]srcPlan, kRR, kRC, kRCswap, dst int) sbIn {
	p0, p1 := &ps[0], &ps[1]
	switch {
	case p0.reg >= 0 && p1.reg >= 0:
		return sbIn{k: kRR, dst: dst, a: p0.reg, b: p1.reg}
	case p0.reg >= 0:
		return sbIn{k: kRC, dst: dst, a: p0.reg, cb: p1.base, sb: p1.slope}
	case p1.reg >= 0:
		return sbIn{k: kRCswap, dst: dst, a: p1.reg, cb: p0.base, sb: p0.slope}
	}
	return sbIn{k: sbkGeneric}
}

// execSBFast executes an all-specialized lowered block lane-major: each
// active lane's register row is sliced once and the whole block runs on it.
// execSBFast runs a fully-specialized block instruction-major: the kind
// switch is resolved once per instruction and a dense loop then applies the
// operation to every active lane, so dispatch cost is amortized across the
// warp width instead of being paid per lane-op. Active-lane register-row
// offsets (and lane indices, for affine constants) are materialized once per
// block into per-core scratch. ALU instructions are lane-local, so
// instruction-major and lane-major orders produce identical register state.
func (c *coreState) execSBFast(w *warp, low []sbIn) {
	flat := w.flat
	offs, lns := w.sbOffs, w.sbLanes
	if w.sbMask != w.active {
		nregs := w.nregs
		offs, lns = offs[:0], lns[:0]
		for lanes := w.active; lanes != 0; {
			lane := bits.TrailingZeros64(lanes)
			lanes &^= 1 << uint(lane)
			offs = append(offs, lane*nregs)
			lns = append(lns, int64(lane))
		}
		w.sbOffs, w.sbLanes, w.sbMask = offs, lns, w.active
	}
	for i := range low {
		d := &low[i]
		dst, a, b, cb, sb := d.dst, d.a, d.b, d.cb, d.sb
		switch d.k {
		case sbkMovC:
			for i, o := range offs {
				flat[o+dst] = cb + sb*lns[i]
			}
		case sbkMovR:
			for _, o := range offs {
				flat[o+dst] = flat[o+a]
			}
		case sbkAddRR:
			for _, o := range offs {
				flat[o+dst] = flat[o+a] + flat[o+b]
			}
		case sbkAddRC:
			for i, o := range offs {
				flat[o+dst] = flat[o+a] + cb + sb*lns[i]
			}
		case sbkSubRR:
			for _, o := range offs {
				flat[o+dst] = flat[o+a] - flat[o+b]
			}
		case sbkMulRR:
			for _, o := range offs {
				flat[o+dst] = flat[o+a] * flat[o+b]
			}
		case sbkMulRC:
			for i, o := range offs {
				flat[o+dst] = flat[o+a] * (cb + sb*lns[i])
			}
		case sbkAndRR:
			for _, o := range offs {
				flat[o+dst] = flat[o+a] & flat[o+b]
			}
		case sbkAndRC:
			for i, o := range offs {
				flat[o+dst] = flat[o+a] & (cb + sb*lns[i])
			}
		case sbkOrRR:
			for _, o := range offs {
				flat[o+dst] = flat[o+a] | flat[o+b]
			}
		case sbkOrRC:
			for i, o := range offs {
				flat[o+dst] = flat[o+a] | (cb + sb*lns[i])
			}
		case sbkXorRR:
			for _, o := range offs {
				flat[o+dst] = flat[o+a] ^ flat[o+b]
			}
		case sbkXorRC:
			for i, o := range offs {
				flat[o+dst] = flat[o+a] ^ (cb + sb*lns[i])
			}
		case sbkShlRC:
			for i, o := range offs {
				flat[o+dst] = flat[o+a] << uint64((cb+sb*lns[i])&63)
			}
		case sbkShrRC:
			for i, o := range offs {
				flat[o+dst] = int64(uint64(flat[o+a]) >> uint64((cb+sb*lns[i])&63))
			}
		case sbkSetLTRR:
			for _, o := range offs {
				flat[o+dst] = b2i(flat[o+a] < flat[o+b])
			}
		case sbkSetLERR:
			for _, o := range offs {
				flat[o+dst] = b2i(flat[o+a] <= flat[o+b])
			}
		case sbkSetEQRR:
			for _, o := range offs {
				flat[o+dst] = b2i(flat[o+a] == flat[o+b])
			}
		case sbkSetNERR:
			for _, o := range offs {
				flat[o+dst] = b2i(flat[o+a] != flat[o+b])
			}
		case sbkSetGTRR:
			for _, o := range offs {
				flat[o+dst] = b2i(flat[o+a] > flat[o+b])
			}
		case sbkSetGERR:
			for _, o := range offs {
				flat[o+dst] = b2i(flat[o+a] >= flat[o+b])
			}
		case sbkSetLTRC:
			for i, o := range offs {
				flat[o+dst] = b2i(flat[o+a] < cb+sb*lns[i])
			}
		case sbkSetLERC:
			for i, o := range offs {
				flat[o+dst] = b2i(flat[o+a] <= cb+sb*lns[i])
			}
		case sbkSetEQRC:
			for i, o := range offs {
				flat[o+dst] = b2i(flat[o+a] == cb+sb*lns[i])
			}
		case sbkSetNERC:
			for i, o := range offs {
				flat[o+dst] = b2i(flat[o+a] != cb+sb*lns[i])
			}
		case sbkSetGTRC:
			for i, o := range offs {
				flat[o+dst] = b2i(flat[o+a] > cb+sb*lns[i])
			}
		case sbkSetGERC:
			for i, o := range offs {
				flat[o+dst] = b2i(flat[o+a] >= cb+sb*lns[i])
			}
		}
	}
}

// replayIssue is the scheduler-visible remainder of a pre-executed
// superblock instruction: per-instruction stats, PC advance, and the opcode
// latency — everything except the (already applied) arithmetic. It must
// mirror execute's ALU path exactly.
func (c *coreState) replayIssue(w *warp, in *kernel.Instr, now uint64) {
	st := w.wg.run.stats
	st.WarpInstrs++
	st.ThreadInstrs += uint64(bits.OnesCount64(w.active))
	w.sbLeft--
	w.pc++
	c.wake(w, now+uint64(c.gpu.aluLat[in.Op]))
}
