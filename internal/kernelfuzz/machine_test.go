package kernelfuzz

import (
	"context"
	"reflect"
	"testing"

	"gpushield/internal/compiler"
	"gpushield/internal/core"
	"gpushield/internal/driver"
	"gpushield/internal/kernel"
	"gpushield/internal/sim"
	"gpushield/internal/workloads"
)

// dirty leaves on a used machine every kind of state a run or a careless
// caller can leave behind: device and GPU settings, hooks, page tracking,
// and — on every core's BCU — a stale key, stale L1/L2 RCache entries and
// stale violation records filed under the kernel ID the next launch will
// draw. That is the recycled-ID leak pattern: a machine that kept any of it
// would hand the next tenant's launch another launch's bounds or
// violations. Checks against a bogus RBT location cache invalid bounds for
// each of next's buffer pointers.
func dirty(dev *driver.Device, gpu *sim.GPU, next *driver.Launch) {
	dev.SetLaunchMutator(func(l *driver.Launch) { l.Key ^= 1 })
	dev.SetRBTRecycle(true)
	dev.SetIDBudget(1)
	dev.SetFineGrainedHeap(true)
	dev.SetHeapLimit(1 << 20)
	gpu.SetMaxCycles(3)
	gpu.TrackPages(true)
	gpu.SetCycleHook(func(uint64) {})
	gpu.SetTxFault(func(uint64, uint64, bool) sim.TxVerdict { return sim.TxVerdict{Drop: true} })
	for c := 0; c < gpu.Config().Cores; c++ {
		bcu := gpu.BCU(c)
		bcu.InstallKernel(next.KernelID, next.Key, core.NewRBT(), 0x7F00_0BAD_0000)
		for i, p := range next.Args {
			if next.ArgBuffers[i] == nil {
				continue
			}
			addr := next.ArgBuffers[i].Base
			bcu.Check(core.CheckRequest{KernelID: next.KernelID, Pointer: p, MinAddr: addr, MaxAddr: addr, PC: i})
		}
	}
}

// legAnalyses returns the shield+static analyses of a case's launches, or
// nil when the compiler reports definite OOB (the oracle skips that leg).
func legAnalyses(t *testing.T, c *Case, kernels []*kernel.Kernel) []*compiler.Analysis {
	ans := make([]*compiler.Analysis, len(kernels))
	for li, k := range kernels {
		an, err := compiler.Analyze(k, launchInfo(c, li))
		if err != nil {
			t.Fatalf("case %d: analyze: %v", c.Index, err)
		}
		if len(an.OOBReports) > 0 {
			return nil
		}
		ans[li] = an
	}
	return ans
}

// TestReusedMachineMatchesFresh replays one seeded stream on a single
// reused device+GPU and on fresh ones, and requires identical LaunchStats
// (violation records included) and identical fuzz findings. The stream
// covers fuzz cases of every plant class in both protected modes, each leg
// preceded by dirty() against the launch it is about to run, several corpus
// benchmarks with their functional checks, and the fuzzer's own per-worker
// reuse across a whole Run.
func TestReusedMachineMatchesFresh(t *testing.T) {
	ctx := context.Background()
	opts := oracleOpts{}.normalized()
	m := new(machine)
	reused := opts
	reused.mach = m

	classes := map[PlantClass]bool{}
	for i := 0; i < 3*int(numPlantClasses); i++ {
		c := Generate(21, i)
		classes[c.Class] = true
		if got, want := runCase(ctx, c, reused), runCase(ctx, c, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d (%s): reused machine findings %v, fresh %v", i, c.Class, got, want)
		}
		if c.Malformed != nil {
			continue
		}
		kernels, err := BuildKernels(c)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		for _, mode := range []driver.Mode{driver.ModeShield, driver.ModeShieldStatic} {
			var ans []*compiler.Analysis
			if mode == driver.ModeShieldStatic {
				if ans = legAnalyses(t, c, kernels); ans == nil {
					continue
				}
			}
			want, launches, err := deviceRun(ctx, c, kernels, ans, mode, opts)
			if err != nil {
				t.Fatalf("case %d %s: fresh: %v", i, mode, err)
			}
			dirty(m.dev, m.gpu, launches[0])
			got, _, err := deviceRun(ctx, c, kernels, ans, mode, reused)
			if err != nil {
				t.Fatalf("case %d %s: reused: %v", i, mode, err)
			}
			if !reflect.DeepEqual(got, want) {
				for li := range got {
					t.Logf("launch %d reused: %+v", li, got[li])
					t.Logf("launch %d fresh:  %+v", li, want[li])
				}
				t.Fatalf("case %d (%s) %s: reused machine LaunchStats differ from fresh", i, c.Class, mode)
			}
		}
	}
	for cl := PlantClass(0); cl < numPlantClasses; cl++ {
		if !classes[cl] {
			t.Errorf("stream has no %s case", cl)
		}
	}

	// Corpus benchmarks on the same machine: a reused pair must build,
	// simulate and verify exactly as a fresh one.
	for _, name := range []string{"chai-sc", "pb-jacobi2d", "shoc-triad", "hotspot", "nw"} {
		b, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []driver.Mode{driver.ModeShield, driver.ModeShieldStatic} {
			run := func(mach *machine) *sim.LaunchStats {
				dev, gpu := mach.acquire(99, opts.MaxCycles)
				spec, err := b.Build(dev, 1)
				if err != nil {
					t.Fatalf("%s: build: %v", name, err)
				}
				var an *compiler.Analysis
				if mode == driver.ModeShieldStatic {
					if an, err = compiler.Analyze(spec.Kernel, spec.Info()); err != nil {
						t.Fatalf("%s: analyze: %v", name, err)
					}
				}
				l, err := dev.PrepareLaunch(spec.Kernel, spec.Grid, spec.Block, spec.Args, mode, an)
				if err != nil {
					t.Fatalf("%s: prepare: %v", name, err)
				}
				st, err := gpu.Run(l)
				if err != nil {
					t.Fatalf("%s %s: run: %v", name, mode, err)
				}
				if spec.Verify != nil {
					if err := spec.Verify(dev); err != nil {
						t.Fatalf("%s %s: verify: %v", name, mode, err)
					}
				}
				return st
			}
			if got, want := run(m), run(nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s: reused machine stats %+v, fresh %+v", name, mode, got, want)
			}
		}
	}

	// The fuzzer's own reuse: one Run on per-worker machines renders the
	// report a run on fresh machines renders.
	rep, err := Run(ctx, Options{Seed: 5, Count: 2 * int(numPlantClasses), Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	var fresh []Finding
	for i := 0; i < 2*int(numPlantClasses); i++ {
		fresh = append(fresh, runCase(ctx, Generate(5, i), opts)...)
	}
	if !reflect.DeepEqual(rep.Findings, fresh) {
		t.Fatalf("Run on reused machines found %v, fresh machines %v", rep.Findings, fresh)
	}
}

// TestPanicDropsMachine: a contained panic must cost the worker its
// machine, so the next case runs on a freshly built pair.
func TestPanicDropsMachine(t *testing.T) {
	ctx := context.Background()
	m := new(machine)
	opts := oracleOpts{mach: m}.normalized()
	c := Generate(1, 0)
	runCase(ctx, c, opts)
	if m.gpu == nil {
		t.Fatal("runCase did not keep its machine")
	}
	bad := Generate(1, 1)
	bad.Bufs = nil // launch args index past the buffers: deviceRun panics
	fs := runCase(ctx, bad, opts)
	if len(fs) == 0 || fs[len(fs)-1].Kind != FindPanic {
		t.Fatalf("corrupt case produced %v, want a contained panic", fs)
	}
	if m.dev != nil || m.gpu != nil {
		t.Fatal("machine kept after a panic")
	}
	if got, want := runCase(ctx, c, opts), runCase(ctx, c, oracleOpts{}.normalized()); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the panic: %v, fresh %v", got, want)
	}
}
