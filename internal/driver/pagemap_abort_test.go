package driver_test

import (
	"fmt"
	"strings"
	"testing"

	"gpushield/internal/driver"
	"gpushield/internal/kernel"
	"gpushield/internal/sim"
)

// TestUnmappedAccessFirstOffender runs warps whose lanes stride from a
// mapped buffer across an alignment gap into the next buffer: some lanes
// land on unmapped pages, some on mapped ones past the gap. The launch must
// abort naming the lowest-numbered lane on an unmapped page, on both the
// memory-plan path (whose mapped-range sweep fails and hands over to the
// per-lane walk) and the reference per-lane path.
func TestUnmappedAccessFirstOffender(t *testing.T) {
	const stride = 2048 // bytes between lanes: lane 1 lands in the gap
	kb := kernel.NewBuilder("straddle")
	p := kb.BufferParam("p", false)
	idx := kb.Add(kb.Mul(kb.GlobalTID(), kernel.Imm(stride/4)), kernel.Imm(1000))
	kb.StoreGlobal(kb.AddScaled(p, kb.GlobalTID(), 4), kb.LoadGlobal(kb.AddScaled(p, idx, 4), 4), 4)
	k := kb.MustBuild()

	for _, noPlans := range []bool{false, true} {
		dev := driver.NewDevice(1)
		a := dev.Malloc("a", driver.PageBytes, false)
		b := dev.Malloc("b", 16*driver.PageBytes, false) // aligned to 64 KB: pages 1-15 after a stay unmapped
		if b.Base != a.Base+16*driver.PageBytes {
			t.Fatalf("layout changed: a at %#x, b at %#x", a.Base, b.Base)
		}
		var want uint64
		for lane := uint64(0); lane < 32; lane++ {
			addr := a.Base + 4000 + lane*stride
			mapped := addr < a.Base+driver.PageBytes || addr >= b.Base
			if dev.Mapped(addr) != mapped {
				t.Fatalf("Mapped(%#x) = %v, want %v", addr, !mapped, mapped)
			}
			if !mapped && want == 0 {
				want = addr
			}
		}
		l, err := dev.PrepareLaunch(k, 1, 32, []driver.Arg{driver.BufArg(a)}, driver.ModeOff, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.NvidiaConfig()
		cfg.NoMemPlans = noPlans
		st, err := sim.New(cfg, dev).Run(l)
		if err != nil {
			t.Fatal(err)
		}
		prefix := fmt.Sprintf("illegal memory access at %#x ", want)
		if !st.Aborted || !strings.HasPrefix(st.AbortMsg, prefix) {
			t.Fatalf("noPlans=%v: aborted=%v msg=%q, want prefix %q", noPlans, st.Aborted, st.AbortMsg, prefix)
		}
	}
}
