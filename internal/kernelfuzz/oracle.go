package kernelfuzz

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sort"

	"gpushield/internal/compiler"
	"gpushield/internal/core"
	"gpushield/internal/driver"
	"gpushield/internal/kernel"
	"gpushield/internal/sim"
)

// FindKind classifies an oracle disagreement.
type FindKind int

// Finding kinds, ordered roughly by layer: generator self-checks, codec,
// compiler leg, runtime legs.
const (
	FindGenInvalid       FindKind = iota // generated kernel failed Build/Validate
	FindTruthInvariant                   // taint reached an address/branch: truth unsound
	FindPlantInert                       // planted fault produced no OOB in ground truth
	FindValidateGap                      // malformed kernel accepted, or wrong sentinel
	FindCodecMismatch                    // JSON round-trip not lossless
	FindAnalyzeError                     // compiler.Analyze rejected a valid kernel
	FindCompilerUnsound                  // StaticSafe access is OOB in ground truth
	FindCompilerFalseOOB                 // StaticOOB access executes in bounds
	FindShieldMissed                     // ModeShield: truth says OOB, BCU silent
	FindShieldSpurious                   // ModeShield: BCU flagged an in-bounds access
	FindStaticMissed                     // ModeShieldStatic: expected violation absent
	FindStaticSpurious                   // ModeShieldStatic: unexpected violation
	FindRunAbort                         // launch aborted (fault, watchdog, deadlock)
	FindPanic                            // simulator/driver panicked
)

func (k FindKind) String() string {
	switch k {
	case FindGenInvalid:
		return "gen-invalid"
	case FindTruthInvariant:
		return "truth-invariant"
	case FindPlantInert:
		return "plant-inert"
	case FindValidateGap:
		return "validate-gap"
	case FindCodecMismatch:
		return "codec-mismatch"
	case FindAnalyzeError:
		return "analyze-error"
	case FindCompilerUnsound:
		return "compiler-unsound"
	case FindCompilerFalseOOB:
		return "compiler-false-oob"
	case FindShieldMissed:
		return "shield-missed"
	case FindShieldSpurious:
		return "shield-spurious"
	case FindStaticMissed:
		return "static-missed"
	case FindStaticSpurious:
		return "static-spurious"
	case FindRunAbort:
		return "run-abort"
	case FindPanic:
		return "panic"
	}
	return "finding?"
}

// Finding is one oracle disagreement for one case.
type Finding struct {
	Kind   FindKind
	Case   int
	Seed   int64
	Class  PlantClass
	Launch int
	SiteID int // -1 when not site-specific
	PC     int // -1 when not site-specific
	Detail string
}

func (f Finding) String() string {
	loc := ""
	if f.SiteID >= 0 {
		loc = fmt.Sprintf(" launch=%d site=%d pc=%d", f.Launch, f.SiteID, f.PC)
	}
	return fmt.Sprintf("[%s] case=%d seed=%d class=%s%s: %s", f.Kind, f.Case, f.Seed, f.Class, loc, f.Detail)
}

// oracleOpts are the runtime knobs shared by the fuzzer loop, the shrinker,
// and corpus replay.
type oracleOpts struct {
	MaxCycles uint64 // per-launch watchdog
	// mach is the evaluating worker's reusable device+GPU pair; nil builds
	// a fresh pair for every runtime leg (the reference behaviour).
	mach *machine
}

// machine is a device+GPU pair one fuzz worker reuses for every runtime leg
// it evaluates, across cases and shrinker re-runs. driver.Device.Reset and
// sim.GPU.Reset return both to their constructors' state, so a reused pair
// behaves exactly as a fresh one; TestReusedMachineMatchesFresh holds that
// against fresh construction, which stays the reference.
type machine struct {
	dev *driver.Device
	gpu *sim.GPU
}

// acquire returns a device+GPU pair in the state driver.NewDevice(seed) and
// a fresh GPU with the given watchdog give: the machine's pair reset in
// place, or a newly built one on first use, after drop, or for a nil
// machine.
func (m *machine) acquire(seed int64, maxCycles uint64) (*driver.Device, *sim.GPU) {
	if m != nil && m.gpu != nil {
		m.dev.Reset(seed)
		m.gpu.Reset()
		m.gpu.SetMaxCycles(maxCycles)
		return m.dev, m.gpu
	}
	cfg := sim.NvidiaConfig().WithShield(core.DefaultBCUConfig())
	cfg.MaxCycles = maxCycles
	dev := driver.NewDevice(seed)
	gpu := sim.New(cfg, dev)
	if m != nil {
		m.dev, m.gpu = dev, gpu
	}
	return dev, gpu
}

// drop discards the pair after a contained panic: state a panic abandoned
// mid-update is not trusted to Reset, so the next acquire builds afresh.
func (m *machine) drop() {
	if m != nil {
		m.dev, m.gpu = nil, nil
	}
}

func (o oracleOpts) normalized() oracleOpts {
	if o.MaxCycles == 0 {
		o.MaxCycles = 2_000_000
	}
	return o
}

// runCase evaluates one case through every oracle leg and returns the
// disagreements, deterministically ordered. Panics anywhere in the
// compile/launch/simulate path are contained into FindPanic findings.
func runCase(ctx context.Context, c *Case, opts oracleOpts) (findings []Finding) {
	opts = opts.normalized()
	find := func(kind FindKind, launch, siteID, pc int, format string, a ...any) {
		findings = append(findings, Finding{
			Kind: kind, Case: c.Index, Seed: c.Seed, Class: c.Class,
			Launch: launch, SiteID: siteID, PC: pc, Detail: fmt.Sprintf(format, a...),
		})
	}
	defer func() {
		if r := recover(); r != nil {
			opts.mach.drop()
			find(FindPanic, -1, -1, -1, "panic: %v", r)
		}
	}()

	// Malformed cases exercise only Validate.
	if c.Malformed != nil {
		err := c.Malformed.Kernel.Validate()
		switch {
		case err == nil:
			find(FindValidateGap, 0, -1, -1, "%s: corrupt kernel accepted by Validate", c.Malformed.Name)
		case !errors.Is(err, c.Malformed.WantErr):
			find(FindValidateGap, 0, -1, -1, "%s: got %v, want sentinel %v", c.Malformed.Name, err, c.Malformed.WantErr)
		}
		return findings
	}

	kernels, err := BuildKernels(c)
	if err != nil {
		find(FindGenInvalid, -1, -1, -1, "%v", err)
		return findings
	}

	// Codec leg: every generated kernel must survive JSON losslessly, with
	// byte-identical re-encoding (that is what the corpus relies on).
	for li, k := range kernels {
		enc, err := k.EncodeJSON()
		if err != nil {
			find(FindCodecMismatch, li, -1, -1, "encode: %v", err)
			continue
		}
		back, err := kernel.DecodeJSON(enc)
		if err != nil {
			find(FindCodecMismatch, li, -1, -1, "decode: %v", err)
			continue
		}
		if !reflect.DeepEqual(k, back) {
			find(FindCodecMismatch, li, -1, -1, "decoded kernel differs from original")
			continue
		}
		enc2, err := back.EncodeJSON()
		if err != nil || !bytes.Equal(enc, enc2) {
			find(FindCodecMismatch, li, -1, -1, "re-encoding not byte-identical (err=%v)", err)
		}
	}

	truth, err := EvalTruth(c)
	if err != nil {
		find(FindTruthInvariant, -1, -1, -1, "%v", err)
		return findings
	}

	// Plant-inertness: a planted fault that ground truth cannot see would
	// be a silent miss by construction; flag it against the generator.
	for _, id := range c.PlantedSites {
		s := siteByID(c, id)
		st := truth[id]
		switch {
		case !st.Executed:
			find(FindPlantInert, s.Launch, id, s.PC, "planted site never executed")
		case !s.Opaque && !st.AnyOOB:
			find(FindPlantInert, s.Launch, id, s.PC, "planted site in bounds (off [%d,%d))", st.MinOff, st.MaxOff)
		}
	}

	// Leg A: static classification vs ground truth.
	siteAt := sitesByPC(c)
	analyses := make([]*compiler.Analysis, len(kernels))
	for li, k := range kernels {
		an, err := compiler.Analyze(k, launchInfo(c, li))
		if err != nil {
			find(FindAnalyzeError, li, -1, -1, "%v", err)
			return findings
		}
		analyses[li] = an
		for _, ai := range an.Accesses {
			s := siteAt[li][ai.Instr]
			if s == nil {
				continue
			}
			st := truth[s.ID]
			switch ai.Class {
			case compiler.AccessStaticSafe:
				if st.AnyOOB {
					find(FindCompilerUnsound, li, s.ID, s.PC,
						"proven safe but OOB: off [%d,%d) size %d", st.MinOff, st.MaxOff, bufSizeOf(c, li, s))
				}
			case compiler.AccessStaticOOB:
				if st.Executed && !st.AnyOOB {
					find(FindCompilerFalseOOB, li, s.ID, s.PC,
						"reported always-OOB but executes in bounds: off [%d,%d)", st.MinOff, st.MaxOff)
				}
			}
		}
	}

	// Leg B: full-runtime protection (every buffer Type-2) vs ground truth.
	findings = append(findings, runtimeLeg(ctx, c, kernels, nil, driver.ModeShield, truth, opts)...)

	// Leg C: compiler-assisted protection. The host-facing contract
	// (gpushield.LaunchCtx) refuses static mode when the compiler reported
	// definite OOB, so the oracle skips this leg for such cases.
	for _, an := range analyses {
		if len(an.OOBReports) > 0 {
			return findings
		}
	}
	findings = append(findings, runtimeLeg(ctx, c, kernels, analyses, driver.ModeShieldStatic, truth, opts)...)
	return findings
}

// siteByID looks a site up by its stable ID. IDs are dense when freshly
// generated but sparse after shrinking deletes statements.
func siteByID(c *Case, id int) *Site {
	for _, s := range c.Sites {
		if s.ID == id {
			return s
		}
	}
	return nil
}

// sitesByPC indexes each launch's sites by final PC.
func sitesByPC(c *Case) []map[int]*Site {
	m := make([]map[int]*Site, len(c.Launches))
	for i := range m {
		m[i] = make(map[int]*Site)
	}
	for _, s := range c.Sites {
		m[s.Launch][s.PC] = s
	}
	return m
}

func bufSizeOf(c *Case, li int, s *Site) uint64 {
	if s.Buf < 0 {
		return 0
	}
	return c.Bufs[c.Launches[li].Args[s.Buf].Buf].Size()
}

// launchInfo mirrors the host convention used across the repo: exact buffer
// sizes (never padded) and every scalar compile-time known.
func launchInfo(c *Case, li int) compiler.LaunchInfo {
	l := &c.Launches[li]
	info := compiler.LaunchInfo{
		Block:       l.Block,
		Grid:        l.Grid,
		BufferBytes: make([]uint64, len(l.Args)),
		ScalarVal:   make([]int64, len(l.Args)),
		ScalarKnown: make([]bool, len(l.Args)),
	}
	for i, a := range l.Args {
		if a.Buf >= 0 {
			info.BufferBytes[i] = c.Bufs[a.Buf].Size()
		} else {
			info.ScalarVal[i] = a.Scalar
			info.ScalarKnown[i] = true
		}
	}
	return info
}

// deviceRun is the shared launch path: a device + GPU in their freshly
// built state (opts.mach's pair, reset), buffers allocated in case order,
// launches run sequentially. It returns per-launch stats and the prepared
// launches (for SkipCheck/Type3Instr/class bits).
func deviceRun(ctx context.Context, c *Case, kernels []*kernel.Kernel, analyses []*compiler.Analysis, mode driver.Mode, opts oracleOpts) ([]*sim.LaunchStats, []*driver.Launch, error) {
	dev, gpu := opts.mach.acquire(caseSeed(c.Seed, c.Index, uint64(0xD0+mode)), opts.MaxCycles)

	bufs := make([]*driver.Buffer, len(c.Bufs))
	for i, spec := range c.Bufs {
		bufs[i] = dev.Malloc(spec.Name, spec.Size(), spec.ReadOnly)
		if len(spec.Init) > 0 {
			data := make([]byte, 8*len(spec.Init))
			for j, v := range spec.Init {
				binary.LittleEndian.PutUint64(data[8*j:], uint64(v))
			}
			if err := dev.CopyToDevice(bufs[i], 0, data); err != nil {
				return nil, nil, fmt.Errorf("init %s: %w", spec.Name, err)
			}
		}
	}

	stats := make([]*sim.LaunchStats, len(kernels))
	launches := make([]*driver.Launch, len(kernels))
	for li, k := range kernels {
		ls := &c.Launches[li]
		args := make([]driver.Arg, len(ls.Args))
		for i, a := range ls.Args {
			if a.Buf >= 0 {
				args[i] = driver.BufArg(bufs[a.Buf])
			} else {
				args[i] = driver.ScalarArg(a.Scalar)
			}
		}
		var an *compiler.Analysis
		if analyses != nil {
			an = analyses[li]
		}
		l, err := dev.PrepareLaunch(k, ls.Grid, ls.Block, args, mode, an)
		if err != nil {
			return nil, nil, fmt.Errorf("prepare launch %d: %w", li, err)
		}
		launches[li] = l
		st, err := gpu.RunCtx(ctx, l)
		if err != nil {
			return nil, nil, fmt.Errorf("run launch %d: %w", li, err)
		}
		stats[li] = st
	}
	return stats, launches, nil
}

// runtimeLeg runs every launch under the given mode and diffs the BCU's
// per-PC violation set against the expectation derived from ground truth.
func runtimeLeg(ctx context.Context, c *Case, kernels []*kernel.Kernel, analyses []*compiler.Analysis, mode driver.Mode, truth map[int]*SiteTruth, opts oracleOpts) []Finding {
	var findings []Finding
	missKind, spurKind := FindShieldMissed, FindShieldSpurious
	if mode == driver.ModeShieldStatic {
		missKind, spurKind = FindStaticMissed, FindStaticSpurious
	}
	find := func(kind FindKind, launch, siteID, pc int, format string, a ...any) {
		findings = append(findings, Finding{
			Kind: kind, Case: c.Index, Seed: c.Seed, Class: c.Class,
			Launch: launch, SiteID: siteID, PC: pc, Detail: fmt.Sprintf(format, a...),
		})
	}

	stats, launches, err := deviceRun(ctx, c, kernels, analyses, mode, opts)
	if err != nil {
		find(FindRunAbort, -1, -1, -1, "mode %s: %v", mode, err)
		return findings
	}

	for li, st := range stats {
		if st.Aborted {
			find(FindRunAbort, li, -1, -1, "mode %s: aborted: %s", mode, st.AbortMsg)
			continue
		}
		got := make(map[int]core.ViolationKind, len(st.Violations))
		for _, v := range st.Violations {
			got[v.PC] = v.Kind
		}
		for _, s := range c.Sites {
			if s.Launch != li {
				continue
			}
			want, mustOnly := expectViolation(c, s, truth[s.ID], launches[li], mode)
			kind, flagged := got[s.PC]
			switch {
			case want && !flagged:
				findings = append(findings, Finding{
					Kind: missKind, Case: c.Index, Seed: c.Seed, Class: c.Class,
					Launch: li, SiteID: s.ID, PC: s.PC,
					Detail: fmt.Sprintf("mode %s: expected violation not reported (truth %s)", mode, truthStr(truth[s.ID])),
				})
			case !want && !mustOnly && flagged:
				findings = append(findings, Finding{
					Kind: spurKind, Case: c.Index, Seed: c.Seed, Class: c.Class,
					Launch: li, SiteID: s.ID, PC: s.PC,
					Detail: fmt.Sprintf("mode %s: spurious %s violation (truth %s)", mode, kind, truthStr(truth[s.ID])),
				})
			}
			delete(got, s.PC)
		}
		// Violations at PCs that are not access sites (address setup,
		// control flow) indicate the BCU checked a non-memory instruction.
		pcs := make([]int, 0, len(got))
		for pc := range got {
			pcs = append(pcs, pc)
		}
		sort.Ints(pcs)
		for _, pc := range pcs {
			find(spurKind, li, -1, pc, "mode %s: %s violation at non-access pc", mode, got[pc])
		}
	}
	return findings
}

// expectViolation derives, for one site under one mode, whether the BCU
// must report a violation. mustOnly relaxes the "no violation" direction
// for opaque sites: they must be flagged, and any violation kind counts.
func expectViolation(c *Case, s *Site, st *SiteTruth, l *driver.Launch, mode driver.Mode) (want, mustOnly bool) {
	if s.Opaque {
		// Stale-pointer deref: the decrypted ID is either invalid for this
		// launch or names a region that cannot contain the victim address,
		// so a violation is mandatory whenever the site executes.
		return st.Executed, true
	}
	if !st.Executed {
		return false, false
	}
	if mode == driver.ModeShield {
		return st.AnyOOB, false
	}
	// shield+static: the prepared launch tells us how this PC is checked.
	if l.SkipCheck[s.PC] {
		return false, false // statically proven; unsoundness is leg A's job
	}
	if s.Buf >= 0 && core.Class(l.Args[s.Buf]) == core.ClassUnprotected {
		return false, false // Type-1 pointer: BCU serves it unchecked
	}
	if l.Type3Instr[s.PC] {
		// Type-3 checks compare against the padded power-of-two size and
		// are blind to the padding gap by design.
		return st.AnyNeg || st.AnyPadOOB, false
	}
	return st.AnyOOB, false
}

func truthStr(st *SiteTruth) string {
	if !st.Executed {
		return "not-executed"
	}
	return fmt.Sprintf("off=[%d,%d) oob=%v neg=%v padOOB=%v", st.MinOff, st.MaxOff, st.AnyOOB, st.AnyNeg, st.AnyPadOOB)
}
