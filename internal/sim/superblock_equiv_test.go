package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"gpushield/internal/driver"
	"gpushield/internal/kernel"
)

// Superblock edge-case equivalence (PR 8 tentpole): each scenario below is
// executed twice — once on the superblock fast path and once with
// Config.NoSuperblocks forcing reference single-stepping — and the full
// LaunchStats reports (plus output buffer bytes, where the kernel writes
// any) must be byte-identical. The scenarios target exactly
// the places where the replay-issue construction could plausibly crack:
// branching into the middle of a pre-decoded run, the watchdog or a context
// cancellation landing while replays of a block are still owed, and a
// divergence reconvergence point sitting on a block boundary.

// sbEquivRun executes one launch of k and returns its report, the output
// buffer contents, and the error.
func sbEquivRun(t *testing.T, k *kernel.Kernel, grid, block int, noSB bool,
	maxCycles uint64, cancelAt uint64) (*LaunchStats, []byte, error) {
	t.Helper()
	dev := driver.NewDevice(1)
	const n = 4096
	buf := dev.Malloc("p", n*4, false)
	cfg := NvidiaConfig()
	cfg.NoSuperblocks = noSB
	cfg.MaxCycles = maxCycles
	l, err := dev.PrepareLaunch(k, grid, block, []driver.Arg{driver.BufArg(buf)}, driver.ModeOff, nil)
	if err != nil {
		t.Fatal(err)
	}
	gpu := New(cfg, dev)
	ctx := context.Background()
	if cancelAt > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		gpu.SetCycleHook(func(now uint64) {
			if now >= cancelAt {
				cancel()
			}
		})
	}
	st, rerr := gpu.RunCtx(ctx, l)
	return st, dev.Mem.ReadBytes(buf.Base, n*4), rerr
}

// sbEquivCompare runs the scenario on both execution paths and fails on any
// divergence in stats, memory, or error identity.
func sbEquivCompare(t *testing.T, k *kernel.Kernel, grid, block int,
	maxCycles, cancelAt uint64, wantErr error) {
	t.Helper()
	// width=1: one core stepped at a time, the simulator's only scheduler.
	t.Run("width=1", func(t *testing.T) {
		ref, refMem, refErr := sbEquivRun(t, k, grid, block, true, maxCycles, cancelAt)
		got, gotMem, gotErr := sbEquivRun(t, k, grid, block, false, maxCycles, cancelAt)
		if wantErr != nil {
			if !errors.Is(refErr, wantErr) || !errors.Is(gotErr, wantErr) {
				t.Fatalf("want %v on both paths, got reference=%v superblock=%v", wantErr, refErr, gotErr)
			}
		} else if refErr != nil || gotErr != nil {
			t.Fatalf("unexpected error: reference=%v superblock=%v", refErr, gotErr)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("stats diverged from single-step reference:\n got: %+v\nwant: %+v", got, ref)
		}
		if !reflect.DeepEqual(gotMem, refMem) {
			t.Error("output buffer diverged from single-step reference")
		}
	})
}

// TestSuperblockEquivBranchIntoBlock jumps into the middle of a pre-decoded
// ALU run: the first loop iteration falls through and enters the 8-long run
// at its head, the second branches straight to a label four instructions in.
// The suffix-length table must make the mid-run entry a shorter block, not a
// misread of the full one.
func TestSuperblockEquivBranchIntoBlock(t *testing.T) {
	kb := kernel.NewBuilder("sb_midblock")
	p := kb.BufferParam("p", false)
	gtid := kb.GlobalTID()
	acc := kb.Mov(gtid)
	kb.ForRange(kernel.Imm(0), kernel.Imm(2), kernel.Imm(1), func(i kernel.Operand) {
		c := kb.SetGT(i, kernel.Imm(0))
		kb.Branch(kernel.OpBraAll, c, false, "mid") // second pass: enter mid-run
		kb.MovTo(acc, kb.Add(acc, kernel.Imm(11)))
		kb.MovTo(acc, kb.Mul(acc, kernel.Imm(3)))
		kb.Label("mid")
		kb.MovTo(acc, kb.Add(acc, kernel.Imm(7)))
		kb.MovTo(acc, kb.Xor(acc, gtid))
	})
	kb.StoreGlobal(kb.AddScaled(p, kb.And(gtid, kernel.Imm(1023)), 4), acc, 4)
	sbEquivCompare(t, kb.MustBuild(), 4, 128, 0, 0, nil)
}

// TestSuperblockEquivWatchdogMidBlock aborts a spinning kernel made of long
// ALU runs with a cycle budget chosen so the abort lands while block replays
// are still owed. The partial report — WarpInstrs counted per replay issue,
// abort cycle, everything — must match single-stepping exactly. Two budgets
// shift the cut point relative to block boundaries.
func TestSuperblockEquivWatchdogMidBlock(t *testing.T) {
	kb := kernel.NewBuilder("sb_watchdog")
	kb.BufferParam("p", false)
	gtid := kb.GlobalTID()
	acc := kb.Mov(gtid)
	kb.WhileAny(func() kernel.Operand { return kb.SetGE(acc, kernel.Imm(-1)) }, func() {
		for j := 0; j < 6; j++ {
			kb.MovTo(acc, kb.Add(acc, kernel.Imm(int64(j+1))))
		}
	})
	k := kb.MustBuild()
	for _, budget := range []uint64{501, 1013} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			sbEquivCompare(t, k, 2, 64, budget, 0, ErrWatchdog)
		})
	}
}

// TestSuperblockEquivCancelMidBlock cancels the context at a fixed cycle via
// the cycle hook; the poll fires on the same scheduling step in both arms,
// typically while superblock replays are in flight, and the aborted partial
// reports must agree byte for byte.
func TestSuperblockEquivCancelMidBlock(t *testing.T) {
	kb := kernel.NewBuilder("sb_cancel")
	kb.BufferParam("p", false)
	gtid := kb.GlobalTID()
	acc := kb.Mov(gtid)
	kb.WhileAny(func() kernel.Operand { return kb.SetGE(acc, kernel.Imm(-1)) }, func() {
		for j := 0; j < 5; j++ {
			kb.MovTo(acc, kb.Add(acc, kernel.Imm(int64(2*j+1))))
		}
	})
	sbEquivCompare(t, kb.MustBuild(), 2, 64, 0, 1500, ErrCanceled)
}

// TestSuperblockEquivReconvergeAtBoundary puts a divergent If directly
// against a straight ALU run: the reconvergence target is the run's first
// instruction, so the mask widens exactly at the block boundary and the
// pre-decode must not let a run flow across it.
func TestSuperblockEquivReconvergeAtBoundary(t *testing.T) {
	kb := kernel.NewBuilder("sb_reconv")
	p := kb.BufferParam("p", false)
	gtid := kb.GlobalTID()
	lane := kb.Mov(kb.LaneID())
	acc := kb.Mov(gtid)
	kb.ForRange(kernel.Imm(0), kernel.Imm(4), kernel.Imm(1), func(i kernel.Operand) {
		c := kb.SetLT(lane, kernel.Imm(16))
		kb.If(c, func() { // half the warp diverges
			kb.MovTo(acc, kb.Add(acc, kernel.Imm(5)))
			kb.MovTo(acc, kb.Mul(acc, kernel.Imm(3)))
		})
		// Reconvergence point: the run below starts exactly here.
		kb.MovTo(acc, kb.Add(acc, kernel.Imm(1)))
		kb.MovTo(acc, kb.Xor(acc, lane))
		kb.MovTo(acc, kb.Add(acc, i))
	})
	kb.StoreGlobal(kb.AddScaled(p, kb.And(gtid, kernel.Imm(1023)), 4), acc, 4)
	sbEquivCompare(t, kb.MustBuild(), 4, 128, 0, 0, nil)
}
