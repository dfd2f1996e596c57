package kernelfuzz

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gpushield/internal/compiler"
	"gpushield/internal/core"
	"gpushield/internal/driver"
	"gpushield/internal/kernel"
	"gpushield/internal/sim"
)

// The bug corpus persists minimized reproducers as self-contained JSON:
// serialized kernel IR plus launch geometry, buffer images, and the exact
// per-mode violation sets the hardware must produce. A reproducer for a
// live bug fails replay until the bug is fixed; once fixed (or for the seed
// entries capturing already-fixed bugs) it becomes a permanent regression
// guard, replayed by `go test`.

// CorpusBuf is one device buffer image.
type CorpusBuf struct {
	Name     string  `json:"name"`
	Bytes    uint64  `json:"bytes"`
	ReadOnly bool    `json:"readOnly,omitempty"`
	Init     []int64 `json:"init,omitempty"` // little-endian 8-byte words
}

// CorpusArg is one launch argument: a buffer reference or a scalar.
type CorpusArg struct {
	Buf    int   `json:"buf"` // index into Bufs, -1 for a scalar
	Scalar int64 `json:"scalar,omitempty"`
}

// CorpusLaunch is one kernel launch.
type CorpusLaunch struct {
	Kernel json.RawMessage `json:"kernel"`
	Grid   int             `json:"grid"`
	Block  int             `json:"block"`
	Args   []CorpusArg     `json:"args"`
}

// SitePC addresses one access: launch index and instruction index.
type SitePC struct {
	Launch int `json:"launch"`
	PC     int `json:"pc"`
}

// CorpusExpect is the exact behavior contract of an entry.
type CorpusExpect struct {
	// Shield / Static are the exact violation PC sets each mode must
	// report — nothing more, nothing less.
	Shield []SitePC `json:"shield,omitempty"`
	Static []SitePC `json:"static,omitempty"`
	// StaticSkip marks entries whose compiler analysis reports definite
	// OOB: the host contract refuses shield+static there, so only
	// ModeShield is replayed.
	StaticSkip bool `json:"staticSkip,omitempty"`
	// NotStaticSafe lists instruction indices of launch 0 that the
	// analyzer must NOT prove safe (AnalyzeOnly entries: compiler
	// soundness regressions such as interval-arithmetic overflow).
	NotStaticSafe []int `json:"notStaticSafe,omitempty"`
}

// CorpusEntry is one persisted reproducer.
type CorpusEntry struct {
	Name  string `json:"name"`
	Class string `json:"class"`
	Note  string `json:"note,omitempty"`
	// ValidateErr names the kernel.Validate sentinel launch 0's kernel
	// must be rejected with; such entries run no launches.
	ValidateErr string `json:"validateErr,omitempty"`
	// AnalyzeOnly entries run the compiler only.
	AnalyzeOnly bool           `json:"analyzeOnly,omitempty"`
	Bufs        []CorpusBuf    `json:"bufs,omitempty"`
	Launches    []CorpusLaunch `json:"launches"`
	Expect      CorpusExpect   `json:"expect"`
}

// sentinels maps persisted names back to the kernel.Validate sentinels.
var sentinels = map[string]error{
	"ErrEmptyProgram": kernel.ErrEmptyProgram,
	"ErrBadOpcode":    kernel.ErrBadOpcode,
	"ErrBadRegister":  kernel.ErrBadRegister,
	"ErrBadParam":     kernel.ErrBadParam,
	"ErrBadBranch":    kernel.ErrBadBranch,
	"ErrBadAccess":    kernel.ErrBadAccess,
	"ErrBadLocal":     kernel.ErrBadLocal,
	"ErrUninitRead":   kernel.ErrUninitRead,
}

// SentinelName returns the persisted name for a Validate sentinel ("" if
// the error matches none).
func SentinelName(err error) string {
	for name, s := range sentinels {
		if errors.Is(err, s) {
			return name
		}
	}
	return ""
}

// SaveEntry writes the entry as <dir>/<name>.json.
func SaveEntry(dir string, e *CorpusEntry) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, e.Name+".json"), append(data, '\n'), 0o644)
}

// LoadDir reads every *.json corpus entry in dir, sorted by filename. A
// missing directory is an empty corpus.
func LoadDir(dir string) ([]*CorpusEntry, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	var out []*CorpusEntry
	for _, fn := range names {
		data, err := os.ReadFile(fn)
		if err != nil {
			return nil, err
		}
		var e CorpusEntry
		if err := json.Unmarshal(data, &e); err != nil {
			return nil, fmt.Errorf("%s: %w", fn, err)
		}
		if e.Name == "" {
			e.Name = strings.TrimSuffix(filepath.Base(fn), ".json")
		}
		out = append(out, &e)
	}
	return out, nil
}

// EntryFromCase converts a (typically shrunk) case into a persisted entry.
// The expectation sets are derived from generator ground truth — not from
// observed behavior — so an entry for a live bug fails replay until the
// bug is fixed.
func EntryFromCase(ctx context.Context, c *Case, name, note string, opts oracleOpts) (*CorpusEntry, error) {
	opts = opts.normalized()
	e := &CorpusEntry{Name: name, Class: c.Class.String(), Note: note}

	if c.Malformed != nil {
		e.ValidateErr = SentinelName(c.Malformed.Kernel.Validate())
		if e.ValidateErr == "" {
			return nil, fmt.Errorf("malformed case %d: no sentinel to persist", c.Index)
		}
		raw, err := c.Malformed.Kernel.EncodeJSON()
		if err != nil {
			return nil, fmt.Errorf("malformed case %d: kernel not serializable: %w", c.Index, err)
		}
		e.Launches = []CorpusLaunch{{Kernel: raw}}
		return e, nil
	}

	kernels, err := BuildKernels(c)
	if err != nil {
		return nil, err
	}
	truth, err := EvalTruth(c)
	if err != nil {
		return nil, err
	}
	for _, b := range c.Bufs {
		e.Bufs = append(e.Bufs, CorpusBuf{Name: b.Name, Bytes: b.Size(), ReadOnly: b.ReadOnly, Init: b.Init})
	}
	analyses := make([]*compiler.Analysis, len(kernels))
	staticSkip := false
	for li, k := range kernels {
		raw, err := k.EncodeJSON()
		if err != nil {
			return nil, err
		}
		l := &c.Launches[li]
		cl := CorpusLaunch{Kernel: raw, Grid: l.Grid, Block: l.Block}
		for _, a := range l.Args {
			cl.Args = append(cl.Args, CorpusArg{Buf: a.Buf, Scalar: a.Scalar})
		}
		e.Launches = append(e.Launches, cl)
		an, err := compiler.Analyze(k, launchInfo(c, li))
		if err != nil {
			return nil, err
		}
		analyses[li] = an
		if len(an.OOBReports) > 0 {
			staticSkip = true
		}
	}

	// Shield expectations come straight from truth.
	for _, s := range c.Sites {
		want, _ := expectViolation(c, s, truth[s.ID], nil, driver.ModeShield)
		if want {
			e.Expect.Shield = append(e.Expect.Shield, SitePC{Launch: s.Launch, PC: s.PC})
		}
	}
	// Static expectations additionally need the prepared launches (skip
	// and Type-3 maps, pointer classes).
	e.Expect.StaticSkip = staticSkip
	if !staticSkip {
		_, launches, err := deviceRun(ctx, c, kernels, analyses, driver.ModeShieldStatic, opts)
		if err != nil {
			return nil, fmt.Errorf("deriving static expectations: %w", err)
		}
		for _, s := range c.Sites {
			want, _ := expectViolation(c, s, truth[s.ID], launches[s.Launch], driver.ModeShieldStatic)
			if want {
				e.Expect.Static = append(e.Expect.Static, SitePC{Launch: s.Launch, PC: s.PC})
			}
		}
	}
	sortSitePCs(e.Expect.Shield)
	sortSitePCs(e.Expect.Static)
	return e, nil
}

func sortSitePCs(s []SitePC) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Launch != s[j].Launch {
			return s[i].Launch < s[j].Launch
		}
		return s[i].PC < s[j].PC
	})
}

// Replay runs one corpus entry and checks every expectation.
func Replay(e *CorpusEntry) error {
	if e.ValidateErr != "" {
		want, ok := sentinels[e.ValidateErr]
		if !ok {
			return fmt.Errorf("%s: unknown sentinel %q", e.Name, e.ValidateErr)
		}
		if len(e.Launches) != 1 {
			return fmt.Errorf("%s: validate entry wants exactly one kernel", e.Name)
		}
		// ParseJSON, not DecodeJSON: the kernel must decode but then fail
		// validation with the recorded sentinel.
		k, err := kernel.ParseJSON(e.Launches[0].Kernel)
		if err != nil {
			return fmt.Errorf("%s: kernel does not decode: %w", e.Name, err)
		}
		err = k.Validate()
		if err == nil {
			return fmt.Errorf("%s: invalid kernel accepted by Validate", e.Name)
		}
		if !errors.Is(err, want) {
			return fmt.Errorf("%s: Validate returned %v, want sentinel %s", e.Name, err, e.ValidateErr)
		}
		return nil
	}

	kernels := make([]*kernel.Kernel, len(e.Launches))
	infos := make([]compiler.LaunchInfo, len(e.Launches))
	analyses := make([]*compiler.Analysis, len(e.Launches))
	for li, cl := range e.Launches {
		k, err := kernel.DecodeJSON(cl.Kernel)
		if err != nil {
			return fmt.Errorf("%s launch %d: %w", e.Name, li, err)
		}
		kernels[li] = k
		info := compiler.LaunchInfo{
			Block:       cl.Block,
			Grid:        cl.Grid,
			BufferBytes: make([]uint64, len(cl.Args)),
			ScalarVal:   make([]int64, len(cl.Args)),
			ScalarKnown: make([]bool, len(cl.Args)),
		}
		for i, a := range cl.Args {
			if a.Buf >= 0 {
				info.BufferBytes[i] = e.Bufs[a.Buf].Bytes
			} else {
				info.ScalarVal[i] = a.Scalar
				info.ScalarKnown[i] = true
			}
		}
		infos[li] = info
		an, err := compiler.Analyze(k, info)
		if err != nil {
			return fmt.Errorf("%s launch %d: analyze: %w", e.Name, li, err)
		}
		analyses[li] = an
	}

	for _, instr := range e.Expect.NotStaticSafe {
		if analyses[0].StaticSafe[instr] {
			return fmt.Errorf("%s: instr %d proven StaticSafe, must not be", e.Name, instr)
		}
	}
	if e.AnalyzeOnly {
		return nil
	}

	if err := replayMode(e, kernels, nil, driver.ModeShield, e.Expect.Shield); err != nil {
		return err
	}
	if e.Expect.StaticSkip {
		return nil
	}
	return replayMode(e, kernels, analyses, driver.ModeShieldStatic, e.Expect.Static)
}

// replayEntrySeed keeps replay devices identical across runs.
const replayEntrySeed = 0x5EED_C0DE

func replayMode(e *CorpusEntry, kernels []*kernel.Kernel, analyses []*compiler.Analysis, mode driver.Mode, want []SitePC) error {
	cfg := sim.NvidiaConfig().WithShield(core.DefaultBCUConfig())
	cfg.MaxCycles = 2_000_000
	dev := driver.NewDevice(replayEntrySeed)
	gpu := sim.New(cfg, dev)

	bufs := make([]*driver.Buffer, len(e.Bufs))
	for i, cb := range e.Bufs {
		bufs[i] = dev.Malloc(cb.Name, cb.Bytes, cb.ReadOnly)
		if len(cb.Init) > 0 {
			data := make([]byte, 8*len(cb.Init))
			for j, v := range cb.Init {
				binary.LittleEndian.PutUint64(data[8*j:], uint64(v))
			}
			if err := dev.CopyToDevice(bufs[i], 0, data); err != nil {
				return fmt.Errorf("%s: init %s: %w", e.Name, cb.Name, err)
			}
		}
	}

	var got []SitePC
	for li, k := range kernels {
		cl := e.Launches[li]
		args := make([]driver.Arg, len(cl.Args))
		for i, a := range cl.Args {
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
		l, err := dev.PrepareLaunch(k, cl.Grid, cl.Block, args, mode, an)
		if err != nil {
			return fmt.Errorf("%s launch %d (%s): %w", e.Name, li, mode, err)
		}
		st, err := gpu.Run(l)
		if err != nil {
			return fmt.Errorf("%s launch %d (%s): %w", e.Name, li, mode, err)
		}
		if st.Aborted {
			return fmt.Errorf("%s launch %d (%s): aborted: %s", e.Name, li, mode, st.AbortMsg)
		}
		seen := map[int]bool{}
		for _, v := range st.Violations {
			if !seen[v.PC] {
				seen[v.PC] = true
				got = append(got, SitePC{Launch: li, PC: v.PC})
			}
		}
	}
	sortSitePCs(got)
	wantSorted := append([]SitePC(nil), want...)
	sortSitePCs(wantSorted)
	if len(got) != len(wantSorted) {
		return fmt.Errorf("%s (%s): violations at %v, want %v", e.Name, mode, got, wantSorted)
	}
	for i := range got {
		if got[i] != wantSorted[i] {
			return fmt.Errorf("%s (%s): violations at %v, want %v", e.Name, mode, got, wantSorted)
		}
	}
	return nil
}
