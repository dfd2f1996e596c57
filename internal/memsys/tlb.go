package memsys

import "fmt"

// TLBConfig describes a translation lookaside buffer.
type TLBConfig struct {
	Name      string
	Entries   int
	Ways      int // Ways == Entries makes it fully associative
	PageBytes int
}

// TLB models a set-associative TLB. Like Cache it tracks presence only; the
// simulator uses identity virtual→physical mapping and charges translation
// latency on misses. Stats is promoted from the shared tag store.
type TLB struct {
	cfg TLBConfig
	tagStore
}

// Validate reports whether the geometry describes a constructible TLB.
func (cfg TLBConfig) Validate() error {
	if cfg.Entries <= 0 || cfg.Ways <= 0 || cfg.PageBytes <= 0 {
		return fmt.Errorf("memsys: bad TLB config %+v", cfg)
	}
	if cfg.PageBytes&(cfg.PageBytes-1) != 0 {
		return fmt.Errorf("memsys: %s: page size %d is not a power of two", cfg.Name, cfg.PageBytes)
	}
	if cfg.Entries%cfg.Ways != 0 {
		return fmt.Errorf("memsys: %s: %d entries not divisible by %d ways", cfg.Name, cfg.Entries, cfg.Ways)
	}
	return nil
}

// NewTLB builds a TLB from cfg, rejecting malformed geometries with an error.
func NewTLB(cfg TLBConfig) (*TLB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &TLB{cfg: cfg, tagStore: newTagStore(cfg.Entries/cfg.Ways, cfg.Ways, cfg.PageBytes)}, nil
}

// MustTLB is NewTLB for the built-in simulator presets; it panics on error
// and must not be fed runtime input.
func MustTLB(cfg TLBConfig) *TLB {
	t, err := NewTLB(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Config returns the TLB geometry.
func (t *TLB) Config() TLBConfig { return t.cfg }

// Access translates the page containing vaddr, reporting whether the
// translation hit. Misses allocate the entry.
func (t *TLB) Access(vaddr uint64) bool { return t.access(vaddr) }

// Flush invalidates all entries.
func (t *TLB) Flush() { t.flush() }

// Reset returns the TLB to the state NewTLB gives: all entries invalid,
// the LRU clock and Stats zeroed.
func (t *TLB) Reset() { t.reset() }
