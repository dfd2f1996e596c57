// Package gpushield is the public API of the GPUShield reproduction: a
// region-based bounds-checking mechanism for GPUs (Lee et al., ISCA 2022)
// together with the cycle-level GPU it runs on.
//
// A System bundles a simulated device and GPU. Allocate buffers, build a
// kernel with the Builder, and launch it under a protection mode:
//
//	sys := gpushield.NewSystem(gpushield.WithProtection(gpushield.Shield))
//	buf := sys.Malloc("data", 4096, false)
//	b := gpushield.NewKernel("scale")
//	p := b.BufferParam("data", false)
//	tid := b.GlobalTID()
//	v := b.LoadGlobal(b.AddScaled(p, tid, 4), 4)
//	b.StoreGlobal(b.AddScaled(p, tid, 4), b.Mul(v, gpushield.Imm(3)), 4)
//	rep, err := sys.Launch(b.MustBuild(), 8, 128, gpushield.Buf(buf))
//
// The report carries cycle-accurate statistics and any memory-safety
// violations GPUShield detected. Out-of-bounds accesses are squashed (or
// fault, in FailFault mode), so a protected launch cannot corrupt
// neighboring allocations.
package gpushield

import (
	"context"
	"fmt"

	"gpushield/internal/compiler"
	"gpushield/internal/core"
	"gpushield/internal/driver"
	"gpushield/internal/sim"
)

// Arch selects a simulated GPU architecture (Table 5).
type Arch int

// Architectures.
const (
	Nvidia Arch = iota // 16 SMs, 32-wide warps, 1024 threads/SM
	Intel              // 24 cores, SIMD16, 7 hardware threads/core
)

// Protection selects the launch-time memory-safety configuration.
type Protection = driver.Mode

// Protection modes.
const (
	// Off disables bounds checking (the paper's baseline).
	Off = driver.ModeOff
	// Shield enables GPUShield hardware bounds checking.
	Shield = driver.ModeShield
	// ShieldStatic adds the compiler pass: statically proven accesses skip
	// runtime checks and Method-C accesses use Type-3 pointers.
	ShieldStatic = driver.ModeShieldStatic
)

// BCUConfig re-exports the bounds-checking-unit configuration.
type BCUConfig = core.BCUConfig

// DefaultBCU returns the paper's default BCU (4-entry L1 RCache at 1 cycle,
// 64-entry L2 RCache at 3 cycles).
func DefaultBCU() BCUConfig { return core.DefaultBCUConfig() }

// Violation is a detected memory-safety violation.
type Violation = core.Violation

// Report is the outcome of one kernel launch.
type Report = sim.LaunchStats

// Option configures a System.
type Option func(*config)

type config struct {
	arch      Arch
	mode      Protection
	bcu       BCUConfig
	seed      int64
	fault     bool
	pages     bool
	fineHeap  bool
	maxCycles uint64
}

// WithArch selects the simulated architecture (default Nvidia).
func WithArch(a Arch) Option { return func(c *config) { c.arch = a } }

// WithProtection selects the protection mode for launches (default Shield).
func WithProtection(p Protection) Option { return func(c *config) { c.mode = p } }

// WithBCU overrides the BCU configuration.
func WithBCU(b BCUConfig) Option { return func(c *config) { c.bcu = b } }

// WithSeed sets the driver seed controlling buffer-ID and key randomness.
func WithSeed(s int64) Option { return func(c *config) { c.seed = s } }

// WithPreciseFaults makes bounds violations abort the kernel instead of
// being logged and squashed (§5.5.2).
func WithPreciseFaults() Option { return func(c *config) { c.fault = true } }

// WithPageTracking enables the per-buffer 4KB page-touch census.
func WithPageTracking() Option { return func(c *config) { c.pages = true } }

// WithFineGrainedHeap gives every device-malloc chunk its own bounds region
// instead of the default single coarse heap region (the paper's §5.7
// future-work extension).
func WithFineGrainedHeap() Option { return func(c *config) { c.fineHeap = true } }

// WithMaxCycles arms the kernel watchdog: any launch (or concurrent launch
// set) still running after n simulated cycles is aborted, its partial Report
// returned together with an error matching ErrWatchdog. 0 (the default)
// disables the watchdog, restoring the historical spin-forever behaviour for
// non-terminating kernels.
func WithMaxCycles(n uint64) Option { return func(c *config) { c.maxCycles = n } }

// WithPerThreadChecks disables warp-level address-range gathering so the
// BCU checks every lane individually — an ablation knob, not a deployment
// configuration.
func WithPerThreadChecks() Option {
	return func(c *config) { c.bcu.PerThread = true }
}

// System is a simulated device + GPU pair ready to run kernels.
type System struct {
	cfg     config
	dev     *driver.Device
	gpu     *sim.GPU
	mailbox *Buffer
}

// NewSystem builds a System.
func NewSystem(opts ...Option) *System {
	c := config{mode: Shield, bcu: core.DefaultBCUConfig(), seed: 1}
	for _, o := range opts {
		o(&c)
	}
	if c.fault {
		c.bcu.Mode = core.FailFault
	}
	dev := driver.NewDevice(c.seed)
	dev.SetFineGrainedHeap(c.fineHeap)
	simCfg := sim.NvidiaConfig()
	if c.arch == Intel {
		simCfg = sim.IntelConfig()
	}
	if c.mode != Off {
		simCfg = simCfg.WithShield(c.bcu)
	}
	simCfg.MaxCycles = c.maxCycles
	gpu := sim.New(simCfg, dev)
	gpu.TrackPages(c.pages)
	return &System{cfg: c, dev: dev, gpu: gpu}
}

// Buffer is a device allocation.
type Buffer = driver.Buffer

// Arg is one kernel argument.
type Arg = driver.Arg

// Buf wraps a buffer as a kernel argument.
func Buf(b *Buffer) Arg { return driver.BufArg(b) }

// Scalar wraps an integer as a kernel argument.
func Scalar(v int64) Arg { return driver.ScalarArg(v) }

// Malloc allocates device memory (cudaMalloc analogue; power-of-two padded).
func (s *System) Malloc(name string, size uint64, readOnly bool) *Buffer {
	return s.dev.Malloc(name, size, readOnly)
}

// MallocManaged allocates SVM/unified memory (cudaMallocManaged analogue,
// 512B-aligned inside on-demand 2MB pages).
func (s *System) MallocManaged(name string, size uint64) *Buffer {
	return s.dev.MallocManaged(name, size)
}

// SetHeapLimit configures the device-malloc heap.
func (s *System) SetHeapLimit(bytes uint64) { s.dev.SetHeapLimit(bytes) }

// Element accessors (host-side memcpy analogues).

func (s *System) WriteUint32(b *Buffer, idx int, v uint32)   { s.dev.WriteUint32(b, idx, v) }
func (s *System) ReadUint32(b *Buffer, idx int) uint32       { return s.dev.ReadUint32(b, idx) }
func (s *System) WriteFloat32(b *Buffer, idx int, v float32) { s.dev.WriteFloat32(b, idx, v) }
func (s *System) ReadFloat32(b *Buffer, idx int) float32     { return s.dev.ReadFloat32(b, idx) }
func (s *System) CopyToDevice(b *Buffer, offset uint64, p []byte) error {
	return s.dev.CopyToDevice(b, offset, p)
}
func (s *System) CopyFromDevice(b *Buffer, offset uint64, n int) ([]byte, error) {
	return s.dev.CopyFromDevice(b, offset, n)
}

// Device exposes the underlying driver device for advanced use.
func (s *System) Device() *driver.Device { return s.dev }

// SetMailbox attaches an SVM buffer that subsequent launches stream
// violation records into as they happen (§5.5.2's runtime-reporting
// option): word 0 counts records, each record is 4 words
// {kind, pc, addr lo32, addr hi32}. Pass nil to detach.
func (s *System) SetMailbox(b *Buffer) { s.mailbox = b }

// ResetMailbox clears the mailbox record count (e.g. between request
// batches in a serving loop).
func (s *System) ResetMailbox() {
	if s.mailbox != nil {
		s.dev.Mem.WriteUint32(s.mailbox.Base, 0)
	}
}

// ReadMailbox decodes the violation records currently in the mailbox.
func (s *System) ReadMailbox() []Violation {
	if s.mailbox == nil {
		return nil
	}
	mem := s.dev.Mem
	n := mem.ReadUint32(s.mailbox.Base)
	out := make([]Violation, 0, n)
	for i := uint32(0); i < n; i++ {
		rec := s.mailbox.Base + 4 + uint64(i)*16
		addr := uint64(mem.ReadUint32(rec+8)) | uint64(mem.ReadUint32(rec+12))<<32
		out = append(out, Violation{
			Kind:    core.ViolationKind(mem.ReadUint32(rec)),
			PC:      int(mem.ReadUint32(rec + 4)),
			MinAddr: addr,
		})
	}
	return out
}

// Analyze runs the static bounds analysis on a kernel for a given launch,
// returning the bounds-analysis table. It is invoked automatically by
// Launch under ShieldStatic; exposed for inspection and tooling.
func (s *System) Analyze(k *Kernel, grid, block int, args []Arg) (*Analysis, error) {
	info := launchInfo(k, grid, block, args)
	return compiler.Analyze(k, info)
}

// Analysis is the static bounds-analysis result.
type Analysis = compiler.Analysis

func launchInfo(k *Kernel, grid, block int, args []Arg) compiler.LaunchInfo {
	info := compiler.LaunchInfo{
		Block:       block,
		Grid:        grid,
		BufferBytes: make([]uint64, len(args)),
		ScalarVal:   make([]int64, len(args)),
		ScalarKnown: make([]bool, len(args)),
	}
	for i, a := range args {
		if a.Buffer != nil {
			info.BufferBytes[i] = a.Buffer.Size
		} else {
			info.ScalarVal[i] = a.Scalar
			info.ScalarKnown[i] = true
		}
	}
	return info
}

// Launch compiles (under ShieldStatic), prepares, and executes one kernel
// launch of grid workgroups × block threads, returning its report. A launch
// whose static analysis proves an access out of bounds for every thread
// fails before touching the GPU, mirroring the paper's compile-time error
// reports.
func (s *System) Launch(k *Kernel, grid, block int, args ...Arg) (*Report, error) {
	return s.LaunchCtx(context.Background(), k, grid, block, args...)
}

// LaunchCtx is Launch under a context: cancellation (Ctrl-C, a deadline)
// aborts the kernel mid-flight, returning the partial Report together with
// an error matching ErrCanceled. A background context makes LaunchCtx
// identical to Launch.
func (s *System) LaunchCtx(ctx context.Context, k *Kernel, grid, block int, args ...Arg) (*Report, error) {
	if k == nil {
		return nil, fmt.Errorf("%w: nil kernel", ErrInvalidLaunch)
	}
	if grid <= 0 || block <= 0 {
		return nil, fmt.Errorf("%w: %s: bad launch geometry grid=%d block=%d", ErrInvalidLaunch, k.Name, grid, block)
	}
	var an *compiler.Analysis
	if s.cfg.mode == ShieldStatic {
		var err error
		an, err = compiler.Analyze(k, launchInfo(k, grid, block, args))
		if err != nil {
			return nil, err
		}
		if len(an.OOBReports) > 0 {
			r := an.OOBReports[0]
			return nil, fmt.Errorf("gpushield: %s: static analysis: instruction @%d accesses bytes [%d,%d] of param %d out of bounds",
				k.Name, r.Instr, r.OffMin, r.OffMax, r.Param)
		}
	}
	l, err := s.dev.PrepareLaunch(k, grid, block, args, s.cfg.mode, an)
	if err != nil {
		return nil, err
	}
	l.Mailbox = s.mailbox
	return s.gpu.RunCtx(ctx, l)
}

// LaunchConcurrent runs several launches simultaneously (§6.2). Share
// modes: inter-core partitions cores between kernels, intra-core lets them
// share cores.
func (s *System) LaunchConcurrent(mode ShareMode, launches ...PreparedLaunch) ([]*Report, error) {
	return s.LaunchConcurrentCtx(context.Background(), mode, launches...)
}

// LaunchConcurrentCtx is LaunchConcurrent under a context; see LaunchCtx.
func (s *System) LaunchConcurrentCtx(ctx context.Context, mode ShareMode, launches ...PreparedLaunch) ([]*Report, error) {
	if len(launches) == 0 {
		return nil, fmt.Errorf("%w: no launches", ErrInvalidLaunch)
	}
	ls := make([]*driver.Launch, len(launches))
	for i, p := range launches {
		if p.Kernel == nil {
			return nil, fmt.Errorf("%w: launch %d: nil kernel", ErrInvalidLaunch, i)
		}
		l, err := s.dev.PrepareLaunch(p.Kernel, p.Grid, p.Block, p.Args, s.cfg.mode, nil)
		if err != nil {
			return nil, err
		}
		ls[i] = l
	}
	return s.gpu.RunConcurrentCtx(ctx, ls, sim.ShareMode(mode))
}

// ShareMode selects multi-kernel core sharing.
type ShareMode uint8

// Share modes.
const (
	InterCore ShareMode = ShareMode(sim.ShareInterCore)
	IntraCore ShareMode = ShareMode(sim.ShareIntraCore)
)

// PreparedLaunch describes one kernel of a concurrent launch set.
type PreparedLaunch struct {
	Kernel *Kernel
	Grid   int
	Block  int
	Args   []Arg
}

// HardwareReport estimates the BCU's area and power (Table 3) for this
// system's configuration.
func (s *System) HardwareReport() core.HWReport {
	return core.EstimateHW(s.cfg.bcu)
}
