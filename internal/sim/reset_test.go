package sim

import (
	"reflect"
	"testing"

	"gpushield/internal/core"
	"gpushield/internal/driver"
	"gpushield/internal/memsys"
)

// coreSnapshot and gpuSnapshot are the machine state a launch can observe
// or that statistics report, gathered for comparing a reset GPU with a
// freshly built one.
type coreSnapshot struct {
	L1D, L1TLB      memsys.CacheStats
	BCU             core.BCUStats
	RL1, RL2        core.RCacheStats
	Violations      int
	Faulted         bool
	WGs, Warps      int
	ThreadsUsed     int
	LSUFreeAt       uint64
	LastWarp, RRRun int
}

type gpuSnapshot struct {
	Cfg        Config
	Now        uint64
	TrackPages bool
	Hooks      bool
	SBCache    int
	AtomicBusy int
	Dispatch   bool
	Wake       []uint64
	L2, L2TLB  memsys.CacheStats
	DRAM       memsys.DRAMStats
	Cores      []coreSnapshot
}

func snapshot(g *GPU) gpuSnapshot {
	s := gpuSnapshot{
		Cfg: g.cfg, Now: g.now, TrackPages: g.trackPages,
		Hooks:   g.cycleHook != nil || g.txFault != nil,
		SBCache: len(g.sbCache), AtomicBusy: len(g.atomicBusy), Dispatch: g.dispatchNeeded,
		Wake: append([]uint64(nil), g.wakes.wake...),
		L2:   g.l2.Stats, L2TLB: g.l2tlb.Stats, DRAM: g.dram.Stats,
	}
	for _, c := range g.cores {
		cs := coreSnapshot{
			L1D: c.l1d.Stats, L1TLB: c.l1tlb.Stats,
			WGs: len(c.wgs), Warps: len(c.warps), ThreadsUsed: c.threadsUsed,
			LSUFreeAt: c.lsuFreeAt, LastWarp: c.lastWarp, RRRun: c.rrRun,
		}
		if c.bcu != nil {
			cs.BCU, cs.RL1, cs.RL2 = c.bcu.Stats, c.bcu.L1Stats(), c.bcu.L2Stats()
			cs.Violations = len(c.bcu.Violations())
			_, cs.Faulted = c.bcu.Faulted()
		}
		s.Cores = append(s.Cores, cs)
	}
	return s
}

// resetVecAdd prepares vecadd over n elements on dev, reading past the end
// of its inputs when oob is set so the launch files violations.
func resetVecAdd(t *testing.T, dev *driver.Device, n int, oob bool) *driver.Launch {
	t.Helper()
	a := dev.Malloc("a", uint64(n)*4, true)
	b := dev.Malloc("b", uint64(n)*4, true)
	c := dev.Malloc("c", uint64(n)*4, false)
	for i := 0; i < n; i++ {
		dev.WriteUint32(a, i, uint32(i))
		dev.WriteUint32(b, i, uint32(3*i))
	}
	limit := int64(n)
	if oob {
		limit += 64
	}
	args := []driver.Arg{driver.BufArg(a), driver.BufArg(b), driver.BufArg(c), driver.ScalarArg(limit)}
	l, err := dev.PrepareLaunch(buildVecAdd(t), (n+255)/256+1, 256, args, driver.ModeShield, nil)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestResetMatchesConstructor: a GPU and device that ran launches, filed
// violations and were left with hooks and settings, read after Reset
// exactly as freshly built ones — every cache, TLB, DRAM and BCU statistic
// zero, no scheduler state — and then run the same launches to the same
// LaunchStats and statistics.
func TestResetMatchesConstructor(t *testing.T) {
	cfg := NvidiaConfig().WithShield(core.DefaultBCUConfig())
	cfg.MaxCycles = 1 << 20
	dev := driver.NewDevice(7)
	g := New(cfg, dev)
	for i, n := range []int{300, 5000, 70} {
		if _, err := g.Run(resetVecAdd(t, dev, n, i != 1)); err != nil {
			t.Fatal(err)
		}
	}
	g.SetMaxCycles(9)
	g.TrackPages(true)
	g.SetCycleHook(func(uint64) {})
	dev.SetRBTRecycle(true)

	dev.Reset(11)
	g.Reset()
	fdev := driver.NewDevice(11)
	fresh := New(cfg, fdev)
	if got, want := snapshot(g), snapshot(fresh); !reflect.DeepEqual(got, want) {
		t.Fatalf("reset GPU state\n%+v\nfresh GPU state\n%+v", got, want)
	}
	for i, n := range []int{1000, 40} {
		got, err := g.Run(resetVecAdd(t, dev, n, i == 0))
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Run(resetVecAdd(t, fdev, n, i == 0))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("launch %d: reset GPU stats\n%+v\nfresh\n%+v", i, got, want)
		}
		if oob := i == 0; (len(got.Violations) > 0) != oob {
			t.Fatalf("launch %d: %d violations", i, len(got.Violations))
		}
	}
	if got, want := snapshot(g), snapshot(fresh); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the same launches: reset GPU state\n%+v\nfresh GPU state\n%+v", got, want)
	}
}

// TestResetReleasesKernels: a reused machine fed a stream of distinct
// kernels must not pin them or grow with them. After each Reset the
// superblock cache is empty, no backing chunk is live, and the zeroed
// chunks kept for reuse never outnumber the largest footprint a round held.
func TestResetReleasesKernels(t *testing.T) {
	cfg := NvidiaConfig().WithShield(core.DefaultBCUConfig())
	dev := driver.NewDevice(1)
	g := New(cfg, dev)
	maxLive := 0
	for round, n := range []int{4096, 60000, 300, 120000, 64, 9000, 2000} {
		for k := 0; k < 3; k++ {
			l := resetVecAdd(t, dev, n+k, false)
			if _, err := g.Run(l); err != nil {
				t.Fatal(err)
			}
		}
		if len(g.sbCache) == 0 && !g.noSuperblocks {
			t.Fatalf("round %d: no superblock tables cached", round)
		}
		live, _ := dev.Mem.ChunkCounts()
		maxLive = max(maxLive, live)
		dev.Reset(int64(round))
		g.Reset()
		if len(g.sbCache) != 0 {
			t.Fatalf("round %d: %d superblock tables survive Reset", round, len(g.sbCache))
		}
		live, spare := dev.Mem.ChunkCounts()
		if live != 0 || spare > maxLive {
			t.Fatalf("round %d: %d live and %d spare chunks after Reset; largest footprint %d", round, live, spare, maxLive)
		}
	}
	for _, c := range g.cores {
		for _, wg := range c.wgPool {
			if wg.run != nil {
				t.Fatal("a parked workgroup still references its run")
			}
		}
	}
}
