package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuProfile is the part of a pprof CPU profile the benchmark needs: each
// sample's stack as function names, innermost first, and its CPU time.
type cpuProfile struct {
	samples []sample
	totalNs int64
}

type sample struct {
	stack []string
	ns    int64
}

// parseProfile decodes the gzipped protobuf that runtime/pprof writes
// (github.com/google/pprof/proto/profile.proto), keeping only samples,
// locations, functions and the string table.
func parseProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location ID -> function IDs, innermost first
		fnName  = map[uint64]int64{}    // function ID -> string index
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendUints(s.locs, v, b)
				case 2:
					for _, u := range appendUints(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ns := s.values[len(s.values)-1] // [samples, cpu nanoseconds]
		var stack []string
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if i := fnName[f]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		p.samples = append(p.samples, sample{stack: stack, ns: ns})
		p.totalNs += ns
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with the field number and
// either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("wire type %d", wire)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated varint field that arrived either unpacked
// (v) or packed (b).
func appendUints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// gcRoots are the runtime functions under which the collector itself runs.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"}

// layerOf names the repository layer a function belongs to, or "".
func layerOf(fn string) string {
	const internal = "gpushield/internal/"
	if !strings.HasPrefix(fn, internal) {
		return ""
	}
	rest := fn[len(internal):]
	if i := strings.IndexByte(rest, '.'); i > 0 {
		return rest[:i]
	}
	return ""
}

// isHTTP reports whether fn is part of the HTTP layer: net/http itself, and
// the JSON and socket code it calls.
func isHTTP(fn string) bool {
	for _, p := range []string{"net/http.", "net.", "encoding/json.", "bufio."} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// shares attributes every sample to one layer and returns each layer's
// share of the profile's CPU time. A sample belongs to "runtime.gc" when a
// collector root is on its stack; otherwise to the innermost frame in a
// repository layer, or in the HTTP layer when net/http is on the stack (so
// the kernel codec's own JSON use stays with the kernel); else "other".
func (p *cpuProfile) shares() map[string]float64 {
	out := make(map[string]float64)
	if p.totalNs == 0 {
		return out
	}
	for _, s := range p.samples {
		gc, web := false, false
		for _, fn := range s.stack {
			for _, r := range gcRoots {
				gc = gc || strings.HasPrefix(fn, r)
			}
			web = web || strings.HasPrefix(fn, "net/http.")
		}
		layer := "other"
		if gc {
			layer = "runtime.gc"
		} else {
			for _, fn := range s.stack {
				if l := layerOf(fn); l != "" {
					layer = l
					break
				}
				if web && isHTTP(fn) {
					layer = "http"
					break
				}
			}
		}
		out[layer] += float64(s.ns) / float64(p.totalNs)
	}
	return out
}

// secondsUnder returns the CPU seconds of samples with a function whose name
// starts with prefix anywhere on the stack.
func (p *cpuProfile) secondsUnder(prefix string) float64 {
	var ns int64
	for _, s := range p.samples {
		for _, fn := range s.stack {
			if strings.HasPrefix(fn, prefix) {
				ns += s.ns
				break
			}
		}
	}
	return float64(ns) / 1e9
}
