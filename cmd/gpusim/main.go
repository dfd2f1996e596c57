// Command gpusim runs one benchmark from the corpus on the simulated GPU
// and prints its statistics.
//
// Usage:
//
//	gpusim -list
//	gpusim -bench streamcluster -mode shield -arch nvidia -scale 2
//	gpusim -bench ocl-kmeans -mode shield+static -l1rcache 2
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"gpushield/internal/compiler"
	"gpushield/internal/core"
	"gpushield/internal/driver"
	"gpushield/internal/lifecycle"
	"gpushield/internal/sim"
	"gpushield/internal/workloads"
)

func main() {
	list := flag.Bool("list", false, "list benchmarks")
	bench := flag.String("bench", "", "benchmark name")
	mode := flag.String("mode", "shield", "protection: off | shield | shield+static")
	arch := flag.String("arch", "", "nvidia | intel (default chosen by benchmark API)")
	scale := flag.Int("scale", 1, "problem-size multiplier")
	l1 := flag.Int("l1rcache", 4, "L1 RCache entries")
	l2 := flag.Int("l2rcache", 64, "L2 RCache entries")
	l1lat := flag.Int("l1lat", 1, "L1 RCache latency (cycles)")
	l2lat := flag.Int("l2lat", 3, "L2 RCache latency (cycles)")
	pages := flag.Bool("pages", false, "track 4KB pages touched per buffer")
	disasm := flag.Bool("disasm", false, "print the kernel disassembly and exit")
	flag.Parse()

	if *list {
		for _, b := range workloads.All() {
			sens := ""
			if b.Sensitive {
				sens = " [rcache-sensitive]"
			}
			fmt.Printf("%-18s %-9s %-8s %s%s\n", b.Name, b.Suite, b.Category, b.API, sens)
		}
		return
	}
	if *bench == "" {
		fmt.Fprintln(os.Stderr, "gpusim: -bench is required (use -list to see choices)")
		os.Exit(2)
	}
	b, err := workloads.ByName(*bench)
	if err != nil {
		fatal(err)
	}
	dev := driver.NewDevice(1)
	spec, err := b.Build(dev, *scale)
	if err != nil {
		fatal(err)
	}
	if *disasm {
		fmt.Print(spec.Kernel.Disassemble())
		return
	}

	var dmode driver.Mode
	switch *mode {
	case "off":
		dmode = driver.ModeOff
	case "shield":
		dmode = driver.ModeShield
	case "shield+static":
		dmode = driver.ModeShieldStatic
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}

	var an *compiler.Analysis
	if dmode == driver.ModeShieldStatic {
		an, err = compiler.Analyze(spec.Kernel, spec.Info())
		if err != nil {
			fatal(err)
		}
		for _, rep := range an.OOBReports {
			fmt.Printf("static analysis: instruction @%d may access bytes [%d,%d] of param %d out of bounds\n",
				rep.Instr, rep.OffMin, rep.OffMax, rep.Param)
		}
	}

	archName := *arch
	if archName == "" {
		archName = "nvidia"
		if b.API == "opencl" {
			archName = "intel"
		}
	}
	cfg := sim.NvidiaConfig()
	if archName == "intel" {
		cfg = sim.IntelConfig()
	}
	if dmode != driver.ModeOff {
		bcu := core.BCUConfig{L1Entries: *l1, L2Entries: *l2, L1Latency: *l1lat, L2Latency: *l2lat}
		cfg = cfg.WithShield(bcu)
	}

	l, err := dev.PrepareLaunch(spec.Kernel, spec.Grid, spec.Block, spec.Args, dmode, an)
	if err != nil {
		fatal(err)
	}
	gpu, err := sim.NewGPU(cfg, dev)
	if err != nil {
		fatal(err)
	}
	gpu.TrackPages(*pages)

	// Two-stage shutdown via internal/lifecycle: the first SIGINT/SIGTERM
	// cancels the run (the simulator aborts at its next cancellation poll and
	// the partial report below still prints); a second signal hard-exits.
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	lifecycle.Notify(func(s os.Signal) {
		fmt.Fprintf(os.Stderr, "\ngpusim: %v: aborting run (partial statistics follow); signal again to exit immediately\n", s)
		cancel(lifecycle.CancelCause(s))
	})

	st, err := gpu.RunCtx(ctx, l)
	canceled := err != nil && errors.Is(err, sim.ErrCanceled)
	if err != nil && !canceled {
		fatal(err)
	}

	fmt.Printf("benchmark      %s (%s, %s, %s)\n", b.Name, b.Suite, b.Category, archName)
	fmt.Printf("launch         %d x %d threads, %d buffers\n", spec.Grid, spec.Block, spec.Kernel.NumBuffers())
	fmt.Printf("mode           %s\n", dmode)
	fmt.Printf("cycles         %d (IPC %.2f)\n", st.Cycles(), st.IPC())
	fmt.Printf("instructions   %d warp / %d thread (%d memory)\n", st.WarpInstrs, st.ThreadInstrs, st.MemInstrs)
	fmt.Printf("L1D            %.1f%% hits (%d accesses)\n", 100*st.L1DHitRate(), st.L1DAccesses)
	fmt.Printf("TLB misses     L1 %d, L2 %d\n", st.L1TLBMisses, st.L2TLBMisses)
	if dmode != driver.ModeOff {
		fmt.Printf("bounds checks  %d RCache (%.1f%% L1 hits), %d type-3, %d skipped (%.1f%% reduction)\n",
			st.Checks, 100*st.RL1HitRate(), st.Type3Checks, st.Skipped, 100*st.CheckReduction())
		fmt.Printf("BCU            %d RBT fetches, %d stall cycles\n", st.RBTFetches, st.BCUStalls)
	}
	if len(st.Violations) > 0 {
		fmt.Printf("violations     %d (first: %v)\n", len(st.Violations), st.Violations[0])
	}
	if st.Aborted {
		fmt.Printf("ABORTED        %s\n", st.AbortMsg)
	}
	if *pages {
		for name, n := range st.PagesPerBuffer {
			fmt.Printf("pages[%s] = %d\n", name, n)
		}
	}
	if canceled {
		// The stats above are a partial report up to the abort cycle;
		// verification would only report the half-finished output.
		os.Exit(lifecycle.ExitInterrupted)
	}
	if spec.Verify != nil {
		if err := spec.Verify(dev); err != nil {
			fatal(fmt.Errorf("verification failed: %w", err))
		}
		fmt.Println("verification   OK")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gpusim:", err)
	os.Exit(1)
}
