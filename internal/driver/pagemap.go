package driver

import "sync/atomic"

// pageMap is the set of mapped pages, kept as sorted, disjoint half-open
// page-number spans. Spans that touch are merged on insert, so a run of
// mapped pages is always exactly one span and "is [lo, hi] mapped" is a
// single containment test against the span holding lo.
//
// A lookup is logically a read: Device.Mapped and Device.MappedRange change
// nothing a caller can observe. The last-hit hint is the one field a lookup
// writes, so it is an atomic, which keeps concurrent lookups on one device
// race-free like any other read. Inserts happen only while no kernel runs.
type pageMap struct {
	spans []pageSpan
	hint  atomic.Int32 // index of the span that answered the last lookup
}

type pageSpan struct{ lo, hi uint64 } // pages [lo, hi)

// search returns the index of the first span ending after page p.
func (m *pageMap) search(p uint64) int {
	i, j := 0, len(m.spans)
	for i < j {
		h := int(uint(i+j) >> 1)
		if m.spans[h].hi <= p {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// insert maps pages [first, last]; an empty range (last < first) maps
// nothing.
func (m *pageMap) insert(first, last uint64) {
	if last < first {
		return
	}
	s := pageSpan{first, last + 1}
	i := m.search(first)
	if i > 0 && m.spans[i-1].hi == first {
		i-- // the span just before ends where s starts: merge it too
	}
	j := i
	for j < len(m.spans) && m.spans[j].lo <= s.hi {
		s.lo = min(s.lo, m.spans[j].lo)
		s.hi = max(s.hi, m.spans[j].hi)
		j++
	}
	if i == j {
		m.spans = append(m.spans, pageSpan{})
		copy(m.spans[i+1:], m.spans[i:])
	} else {
		m.spans = append(m.spans[:i+1], m.spans[j:]...)
	}
	m.spans[i] = s
}

// reset unmaps every page, keeping the span array's capacity.
func (m *pageMap) reset() {
	m.spans = m.spans[:0]
	m.hint.Store(0)
}

// contains reports whether every page in [first, last] is mapped.
func (m *pageMap) contains(first, last uint64) bool {
	h := int(m.hint.Load())
	if h < len(m.spans) && m.spans[h].lo <= first && last < m.spans[h].hi {
		return true
	}
	i := m.search(first)
	if i == len(m.spans) || m.spans[i].lo > first || last >= m.spans[i].hi {
		return false
	}
	m.hint.Store(int32(i))
	return true
}
