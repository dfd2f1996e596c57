package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"gpushield/internal/driver"
	"gpushield/internal/kernel"
)

// buildInfiniteLoop returns a kernel whose every thread spins forever: the
// loop condition is a constant true, so no lane ever retires.
func buildInfiniteLoop(t testing.TB) *kernel.Kernel {
	t.Helper()
	b := kernel.NewBuilder("spin")
	acc := b.Mov(kernel.Imm(0))
	b.WhileAny(func() kernel.Operand {
		return b.SetLT(kernel.Imm(0), kernel.Imm(1)) // always true
	}, func() {
		b.MovTo(acc, b.Add(acc, kernel.Imm(1)))
	})
	k, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return k
}

// buildBarrierDivergence returns a kernel where the first half of each
// workgroup parks at a barrier while the second half spins forever, so the
// barrier can never release: a barrier-divergence deadlock.
func buildBarrierDivergence(t testing.TB, half int64) *kernel.Kernel {
	t.Helper()
	b := kernel.NewBuilder("bar-deadlock")
	tid := b.TID()
	p := b.SetLT(tid, kernel.Imm(half))
	acc := b.Mov(kernel.Imm(0))
	b.IfElse(p, func() {
		b.Barrier()
	}, func() {
		b.WhileAny(func() kernel.Operand {
			return b.SetLT(kernel.Imm(0), kernel.Imm(1))
		}, func() {
			b.MovTo(acc, b.Add(acc, kernel.Imm(1)))
		})
	})
	k, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return k
}

func presetConfigs() map[string]Config {
	return map[string]Config{"nvidia": NvidiaConfig(), "intel": IntelConfig()}
}

func prepare(t testing.TB, dev *driver.Device, k *kernel.Kernel, grid, block int) *driver.Launch {
	t.Helper()
	l, err := dev.PrepareLaunch(k, grid, block, nil, driver.ModeOff, nil)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	return l
}

func TestWatchdogAbortsInfiniteLoop(t *testing.T) {
	for name, cfg := range presetConfigs() {
		t.Run(name, func(t *testing.T) {
			cfg.MaxCycles = 20_000
			dev := driver.NewDevice(1)
			gpu := New(cfg, dev)
			l := prepare(t, dev, buildInfiniteLoop(t), 2, 2*cfg.WarpWidth)

			rep, err := gpu.Run(l)
			if !errors.Is(err, ErrWatchdog) {
				t.Fatalf("want ErrWatchdog, got %v", err)
			}
			if rep == nil {
				t.Fatalf("watchdog abort must still return a partial report")
			}
			if !rep.Aborted || !strings.Contains(rep.AbortMsg, "watchdog") {
				t.Fatalf("partial report not marked aborted: %+v", rep)
			}
			if rep.Cycles() < cfg.MaxCycles {
				t.Fatalf("aborted at %d cycles, before the %d budget", rep.Cycles(), cfg.MaxCycles)
			}
			if rep.WarpInstrs == 0 {
				t.Fatalf("partial report should include progress up to the abort")
			}
		})
	}
}

func TestWatchdogAbortsBarrierDeadlock(t *testing.T) {
	for name, cfg := range presetConfigs() {
		t.Run(name, func(t *testing.T) {
			cfg.MaxCycles = 20_000
			dev := driver.NewDevice(1)
			gpu := New(cfg, dev)
			// Two warps per workgroup; the first parks at the barrier, the
			// second spins, so the barrier never releases.
			l := prepare(t, dev, buildBarrierDivergence(t, int64(cfg.WarpWidth)), 1, 2*cfg.WarpWidth)

			rep, err := gpu.Run(l)
			if !errors.Is(err, ErrWatchdog) {
				t.Fatalf("want ErrWatchdog, got %v", err)
			}
			if rep == nil || !rep.Aborted {
				t.Fatalf("want aborted partial report, got %+v", rep)
			}
		})
	}
}

func TestWatchdogMultiKernelKeepsFinishedReport(t *testing.T) {
	cfg := NvidiaConfig()
	cfg.MaxCycles = 50_000
	dev := driver.NewDevice(1)
	gpu := New(cfg, dev)

	// A quick kernel that finishes immediately alongside a hung one.
	b := kernel.NewBuilder("quick")
	b.Mov(kernel.Imm(1))
	quick, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	lq := prepare(t, dev, quick, 1, 32)
	ls := prepare(t, dev, buildInfiniteLoop(t), 1, 32)

	for _, mode := range []ShareMode{ShareInterCore, ShareIntraCore} {
		t.Run(mode.String(), func(t *testing.T) {
			reps, err := gpu.RunConcurrent([]*driver.Launch{lq, ls}, mode)
			if !errors.Is(err, ErrWatchdog) {
				t.Fatalf("want ErrWatchdog, got %v", err)
			}
			if len(reps) != 2 {
				t.Fatalf("want 2 reports, got %d", len(reps))
			}
			if reps[0].Aborted {
				t.Fatalf("finished kernel must keep its clean report: %+v", reps[0])
			}
			if !reps[1].Aborted {
				t.Fatalf("hung kernel must be marked aborted")
			}
		})
	}
}

func TestWatchdogDisabledByDefault(t *testing.T) {
	// MaxCycles=0 must not abort a long-but-finite kernel.
	cfg := NvidiaConfig()
	dev := driver.NewDevice(1)
	gpu := New(cfg, dev)

	b := kernel.NewBuilder("counted")
	acc := b.Mov(kernel.Imm(0))
	b.ForRange(kernel.Imm(0), kernel.Imm(500), kernel.Imm(1), func(kernel.Operand) {
		b.MovTo(acc, b.Add(acc, kernel.Imm(1)))
	})
	k, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	rep, err := gpu.Run(prepare(t, dev, k, 1, 32))
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if rep.Aborted {
		t.Fatalf("finite kernel aborted: %s", rep.AbortMsg)
	}
}

func TestRunConcurrentRejectsInvalidLaunches(t *testing.T) {
	cfg := NvidiaConfig()
	dev := driver.NewDevice(1)
	gpu := New(cfg, dev)

	if _, err := gpu.RunConcurrent(nil, ShareIntraCore); !errors.Is(err, driver.ErrInvalidLaunch) {
		t.Fatalf("empty launch set: want ErrInvalidLaunch, got %v", err)
	}
	if _, err := gpu.RunConcurrent([]*driver.Launch{nil}, ShareIntraCore); !errors.Is(err, driver.ErrInvalidLaunch) {
		t.Fatalf("nil launch: want ErrInvalidLaunch, got %v", err)
	}
	l := prepare(t, dev, buildInfiniteLoop(t), 1, 32)
	l.Block = cfg.MaxThreadsPerCore + 1
	if _, err := gpu.RunConcurrent([]*driver.Launch{l}, ShareIntraCore); !errors.Is(err, driver.ErrInvalidLaunch) {
		t.Fatalf("oversized block: want ErrInvalidLaunch, got %v", err)
	}
}

func TestNewGPURejectsInvalidConfig(t *testing.T) {
	bad := NvidiaConfig()
	bad.Cores = 0
	if _, err := NewGPU(bad, driver.NewDevice(1)); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("want ErrInvalidConfig, got %v", err)
	}
	bad = NvidiaConfig()
	bad.L1D.LineBytes = 100 // not a power of two
	if _, err := NewGPU(bad, driver.NewDevice(1)); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("want ErrInvalidConfig for cache geometry, got %v", err)
	}
}

// TestSetMaxCyclesMatchesConfigBudget pins the contract the daemon's cycle
// budgets rely on: a watchdog budget armed after construction with
// SetMaxCycles, the way the serving loop rearms it per request, aborts at
// exactly the cycle Config.MaxCycles does, with a byte-identical partial
// report.
func TestSetMaxCyclesMatchesConfigBudget(t *testing.T) {
	run := func(viaSetter bool) []byte {
		t.Helper()
		dev := driver.NewDevice(11)
		buf := dev.Malloc("p", 1<<20, false)
		l, err := dev.PrepareLaunch(buildSpinGolden(t), 16, 64, []driver.Arg{driver.BufArg(buf)}, driver.ModeOff, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg := NvidiaConfig()
		if !viaSetter {
			cfg.MaxCycles = 4096
		}
		gpu := New(cfg, dev)
		if viaSetter {
			gpu.SetMaxCycles(4096)
		}
		st, err := gpu.RunConcurrentCtx(context.Background(), []*driver.Launch{l}, ShareInterCore)
		if !errors.Is(err, ErrWatchdog) {
			t.Fatalf("got %v, want ErrWatchdog", err)
		}
		if len(st) != 1 || !st[0].Aborted || st[0].WarpInstrs == 0 {
			t.Fatalf("expected an aborted partial report with progress, got %+v", st)
		}
		j, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	if got, want := run(true), run(false); !bytes.Equal(got, want) {
		t.Fatalf("SetMaxCycles partial report diverged from Config.MaxCycles:\n got: %s\nwant: %s", got, want)
	}
}
