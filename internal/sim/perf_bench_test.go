package sim

import (
	"testing"

	"gpushield/internal/core"
	"gpushield/internal/driver"
	"gpushield/internal/kernel"
	"gpushield/internal/memsys"
)

// Microbenchmarks for the simulator's own hot paths (the host-side cost of
// simulating, not the simulated machine's performance). BENCH_PR3.json
// tracks these from PR 3 onward; `make bench-json` regenerates it.

// BenchmarkWarpIssueThroughput measures the scheduler's per-issue overhead
// with a deliberately low-occupancy ALU kernel: two workgroups on a 16-core
// GPU leave 14 cores idle, so a scan-everything scheduler pays for all 16
// every cycle while an event-driven one touches only the two that can issue.
func BenchmarkWarpIssueThroughput(b *testing.B) {
	kb := kernel.NewBuilder("warpissue")
	p := kb.BufferParam("p", false)
	gtid := kb.GlobalTID()
	acc := kb.Mov(gtid)
	kb.ForRange(kernel.Imm(0), kernel.Imm(256), kernel.Imm(1), func(i kernel.Operand) {
		kb.MovTo(acc, kb.Add(kb.Mul(acc, kernel.Imm(3)), i))
	})
	kb.StoreGlobal(kb.AddScaled(p, gtid, 4), acc, 4)
	k := kb.MustBuild()

	// Device and GPU are built once: the loop measures the per-launch path
	// (driver prep + simulation), not constructor cost.
	dev := driver.NewDevice(1)
	buf := dev.Malloc("p", 2*64*4, false)
	gpu := New(NvidiaConfig(), dev)
	var instrs, cycles uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := dev.PrepareLaunch(k, 2, 64, []driver.Arg{driver.BufArg(buf)}, driver.ModeOff, nil)
		if err != nil {
			b.Fatal(err)
		}
		st, err := gpu.Run(l)
		if err != nil {
			b.Fatal(err)
		}
		instrs += st.WarpInstrs
		cycles += st.Cycles()
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "warp-instrs/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/sim-cycle")
}

// BenchmarkMemInstrThroughput measures the global-memory instruction path —
// AGU, coalescing, cache/TLB timing, functional loads and stores — on a
// streaming kernel that keeps every core busy, with and without the BCU.
func BenchmarkMemInstrThroughput(b *testing.B) {
	build := func() *kernel.Kernel {
		kb := kernel.NewBuilder("memstream")
		p := kb.BufferParam("p", false)
		gtid := kb.GlobalTID()
		acc := kb.Mov(kernel.Imm(0))
		kb.ForRange(kernel.Imm(0), kernel.Imm(32), kernel.Imm(1), func(i kernel.Operand) {
			idx := kb.And(kb.Add(gtid, kb.Mul(i, kernel.Imm(512))), kernel.Imm(16383))
			v := kb.LoadGlobal(kb.AddScaled(p, idx, 4), 4)
			kb.MovTo(acc, kb.Add(acc, v))
		})
		kb.StoreGlobal(kb.AddScaled(p, gtid, 4), acc, 4)
		return kb.MustBuild()
	}
	const n = 16384
	for _, shield := range []bool{false, true} {
		name := "off"
		if shield {
			name = "shield"
		}
		b.Run(name, func(b *testing.B) {
			k := build()
			dev := driver.NewDevice(1)
			buf := dev.Malloc("p", n*4, false)
			mode := driver.ModeOff
			cfg := NvidiaConfig()
			if shield {
				mode = driver.ModeShield
				cfg = cfg.WithShield(core.DefaultBCUConfig())
			}
			gpu := New(cfg, dev)
			var mem, cycles uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l, err := dev.PrepareLaunch(k, n/256, 256, []driver.Arg{driver.BufArg(buf)}, mode, nil)
				if err != nil {
					b.Fatal(err)
				}
				st, err := gpu.Run(l)
				if err != nil {
					b.Fatal(err)
				}
				mem += st.MemInstrs
				cycles += st.Cycles()
			}
			b.ReportMetric(float64(mem)/b.Elapsed().Seconds(), "mem-instrs/s")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/sim-cycle")
		})
	}
}

// BenchmarkMemPlanPaths crosses the two addressing methods the memory-plan
// cache distinguishes — Method B (full tagged address materialised in a
// register, LoadGlobal) and Method C (parameter base + register offset,
// LoadGlobalOfs) — with the three stride classes the planner recognises:
// unit-stride (dense lines, batched functional path), strided (arithmetic
// line walk with dedup) and indirect (hashed indices; classification fails
// and the reference coalescer replays). All six run under the BCU so the
// verdict-cache hit path is on the measured path.
func BenchmarkMemPlanPaths(b *testing.B) {
	const n = 16384
	build := func(method string, pattern string) *kernel.Kernel {
		kb := kernel.NewBuilder("memplan-" + method + "-" + pattern)
		p := kb.BufferParam("p", false)
		gtid := kb.GlobalTID()
		acc := kb.Mov(kernel.Imm(0))
		kb.ForRange(kernel.Imm(0), kernel.Imm(16), kernel.Imm(1), func(i kernel.Operand) {
			var idx kernel.Operand
			switch pattern {
			case "unit":
				// Adjacent lanes touch adjacent words: stride == bytes.
				idx = kb.And(kb.Add(gtid, kb.Mul(i, kernel.Imm(512))), kernel.Imm(n-1))
			case "strided":
				// Adjacent lanes are 4 words apart: monotone, stride 16B.
				idx = kb.And(kb.Add(kb.Mul(gtid, kernel.Imm(4)), i), kernel.Imm(n-1))
			default: // indirect
				// Hashed index: non-monotone per lane, defeats the
				// arithmetic coalescers.
				idx = kb.And(kb.Mul(kb.Add(gtid, i), kernel.Imm(2654435761)), kernel.Imm(n-1))
			}
			var v kernel.Operand
			if method == "B" {
				v = kb.LoadGlobal(kb.AddScaled(p, idx, 4), 4)
			} else {
				v = kb.LoadGlobalOfs(p, kb.Mul(idx, kernel.Imm(4)), 4)
			}
			kb.MovTo(acc, kb.Add(acc, v))
		})
		if method == "B" {
			kb.StoreGlobal(kb.AddScaled(p, gtid, 4), acc, 4)
		} else {
			kb.StoreGlobalOfs(p, kb.Mul(gtid, kernel.Imm(4)), acc, 4)
		}
		return kb.MustBuild()
	}
	for _, method := range []string{"B", "C"} {
		for _, pattern := range []string{"unit", "strided", "indirect"} {
			b.Run(method+"/"+pattern, func(b *testing.B) {
				k := build(method, pattern)
				dev := driver.NewDevice(1)
				buf := dev.Malloc("p", n*4, false)
				gpu := New(NvidiaConfig().WithShield(core.DefaultBCUConfig()), dev)
				var mem uint64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					l, err := dev.PrepareLaunch(k, n/256, 256, []driver.Arg{driver.BufArg(buf)}, driver.ModeShield, nil)
					if err != nil {
						b.Fatal(err)
					}
					st, err := gpu.Run(l)
					if err != nil {
						b.Fatal(err)
					}
					mem += st.MemInstrs
				}
				b.ReportMetric(float64(mem)/b.Elapsed().Seconds(), "mem-instrs/s")
			})
		}
	}
}

// BenchmarkFunctionalMemPath measures the steady-state functional load/store
// path in isolation: one op is one store + one load against the sparse
// backing store. The zero-allocation criterion for PR 3 is asserted here
// (allocs/op must be ~0 once the backing store stops round-tripping through
// intermediate slices).
func BenchmarkFunctionalMemPath(b *testing.B) {
	mem := memsys.NewBacking()
	in := &kernel.Instr{Op: kernel.OpLd, Bytes: 4, Dst: 0, Pred: -1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i&4095) * 4
		storeValue(mem, addr, in, int64(i))
		if got := loadValue(mem, addr, in); got != int64(int32(i)) {
			b.Fatalf("round trip: got %d want %d", got, int64(int32(i)))
		}
	}
}

// BenchmarkBackingReadUint isolates the raw backing-store scalar read, the
// innermost call of every functional memory access.
func BenchmarkBackingReadUint(b *testing.B) {
	mem := memsys.NewBacking()
	mem.WriteUint64(0, 0x0123456789abcdef)
	var sink uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += mem.ReadUint(uint64(i&8191)*8, 8)
	}
	_ = sink
}

// BenchmarkDeviceSetup measures what every fresh launch context pays before
// its first instruction: one op is NewDevice, the default 8 MB heap, and
// New with the Nvidia preset (cache and TLB tag stores for every core plus
// the shared L2). Short launches, such as the fuzzer's thousands of tiny
// kernels, are dominated by it.
func BenchmarkDeviceSetup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dev := driver.NewDevice(int64(i))
		dev.Heap()
		New(NvidiaConfig(), dev)
	}
}
