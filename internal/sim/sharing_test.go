package sim

import (
	"testing"

	"gpushield/internal/core"
	"gpushield/internal/driver"
	"gpushield/internal/kernel"
)

// TestInterCorePartitioning verifies the §6.2 inter-core mode really
// partitions the machine: with two kernels on a 16-core GPU each must run
// on at most half the cores, while intra-core mode lets both spread.
func TestInterCorePartitioning(t *testing.T) {
	mkLaunch := func(dev *driver.Device, name string) *driver.Launch {
		b := kernel.NewBuilder(name)
		p := b.BufferParam("p", false)
		b.StoreGlobal(b.AddScaled(p, b.GlobalTID(), 4), kernel.Imm(1), 4)
		k := b.MustBuild()
		buf := dev.Malloc(name, 64*1024, false)
		l, err := dev.PrepareLaunch(k, 64, 128, []driver.Arg{driver.BufArg(buf)}, driver.ModeShield, nil)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	run := func(mode ShareMode) (int, int) {
		dev := driver.NewDevice(9)
		la := mkLaunch(dev, "ka")
		lb := mkLaunch(dev, "kb")
		gpu := New(NvidiaConfig().WithShield(core.DefaultBCUConfig()), dev)
		res, err := gpu.RunConcurrent([]*driver.Launch{la, lb}, mode)
		if err != nil {
			t.Fatal(err)
		}
		return res[0].CoresUsed, res[1].CoresUsed
	}

	a, b := run(ShareInterCore)
	if a > 8 || b > 8 {
		t.Fatalf("inter-core mode leaked across the partition: %d and %d cores", a, b)
	}
	if a == 0 || b == 0 {
		t.Fatalf("a kernel ran on no cores: %d, %d", a, b)
	}
	a, b = run(ShareIntraCore)
	if a <= 8 && b <= 8 {
		t.Fatalf("intra-core mode should let kernels spread: %d and %d cores", a, b)
	}
}

// TestInterCoreAbortSparesCoResident checks that a launch aborted mid-flight
// tears down only its own workgroups: under inter-core sharing, launch 0
// dies on a BCU precise fault (or, unprotected, on a page fault from the same
// wild store) while the co-resident vecadd launch still runs to completion.
func TestInterCoreAbortSparesCoResident(t *testing.T) {
	buildOOB := func(t *testing.T) *kernel.Kernel {
		t.Helper()
		b := kernel.NewBuilder("oob-fault")
		buf := b.BufferParam("buf", false)
		v := b.LoadGlobal(b.AddScaled(buf, b.GlobalTID(), 4), 4)
		b.StoreGlobal(b.AddScaled(buf, b.Add(b.GlobalTID(), kernel.Imm(1<<20)), 4), v, 4)
		return b.MustBuild()
	}
	failFault := core.DefaultBCUConfig()
	failFault.Mode = core.FailFault
	for _, sc := range []struct {
		name string
		mode driver.Mode
		cfg  Config
	}{
		{"bcu-fail-fault", driver.ModeShield, NvidiaConfig().WithShield(failFault)},
		// Under ModeOff nothing bounds-checks the wild store, so it walks off
		// every mapping and page-faults.
		{"page-fault", driver.ModeOff, NvidiaConfig()},
	} {
		t.Run(sc.name, func(t *testing.T) {
			dev := driver.NewDevice(3)
			buffer := dev.Malloc("buf", 4096, false)
			la, err := dev.PrepareLaunch(buildOOB(t), 16, 64, []driver.Arg{driver.BufArg(buffer)}, sc.mode, nil)
			if err != nil {
				t.Fatal(err)
			}
			const n = 1000
			ba := dev.Malloc("a", n*4, true)
			bb := dev.Malloc("b", n*4, true)
			bc := dev.Malloc("c", n*4, false)
			for i := 0; i < n; i++ {
				dev.WriteUint32(ba, i, uint32(i))
				dev.WriteUint32(bb, i, uint32(2*i))
			}
			lb, err := dev.PrepareLaunch(buildVecAdd(t), 8, 128, []driver.Arg{
				driver.BufArg(ba), driver.BufArg(bb), driver.BufArg(bc), driver.ScalarArg(n),
			}, sc.mode, nil)
			if err != nil {
				t.Fatal(err)
			}
			// The budget turns a teardown that strands launch 1 into an
			// ErrWatchdog instead of a hang.
			sc.cfg.MaxCycles = 1 << 20
			st, err := New(sc.cfg, dev).RunConcurrent([]*driver.Launch{la, lb}, ShareInterCore)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if len(st) != 2 || !st[0].Aborted {
				t.Fatalf("launch 0 did not abort: %+v", st)
			}
			if st[1].Aborted || st[1].FinishCycle == 0 {
				t.Fatalf("co-resident launch 1 did not complete: %+v", st[1])
			}
		})
	}
}
