package sim

// farFuture is the wake time of a core that provably cannot issue until
// some future event (placement, barrier release) re-arms it.
const farFuture = ^uint64(0)

// wakeHeap is a lazy binary min-heap over per-core wake times: the earliest
// cycle at which each core might issue an instruction. Every core occupies
// exactly one slot, so the structure never grows.
//
// Updates happen on every issue (the hottest path in the simulator), while
// the minimum is only consulted when the whole GPU went idle for a step, so
// the heap is maintained lazily: set/earlier are O(1) writes that mark the
// order dirty, and min restores the heap invariant on demand with a Floyd
// build-heap before peeking the root. That keeps the next-event query at
// O(cores) — independent of the (much larger) resident-warp population the
// scan-based scheduler used to walk.
type wakeHeap struct {
	wake  []uint64 // wake[core] = earliest possible issue cycle
	heap  []int    // core ids, heap-ordered by wake when !dirty
	dirty bool
}

func newWakeHeap(cores int) *wakeHeap {
	h := &wakeHeap{
		wake: make([]uint64, cores),
		heap: make([]int, cores),
	}
	for i := 0; i < cores; i++ {
		h.wake[i] = farFuture
		h.heap[i] = i
	}
	return h
}

// reset parks every core at farFuture. Called at the start of each
// RunConcurrent.
func (h *wakeHeap) reset() {
	for i := range h.wake {
		h.wake[i] = farFuture
	}
	h.dirty = false // all keys equal: any layout is a valid heap
}

// restart returns the heap to its just-built layout: every core parked at
// farFuture, in core-id order.
func (h *wakeHeap) restart() {
	h.reset()
	for i := range h.heap {
		h.heap[i] = i
	}
}

// at returns core's current wake time.
func (h *wakeHeap) at(core int) uint64 { return h.wake[core] }

// set moves core's wake time to t.
func (h *wakeHeap) set(core int, t uint64) {
	if h.wake[core] != t {
		h.wake[core] = t
		h.dirty = true
	}
}

// earlier lowers core's wake time to t if t is sooner than its current one.
func (h *wakeHeap) earlier(core int, t uint64) {
	if t < h.wake[core] {
		h.wake[core] = t
		h.dirty = true
	}
}

// min returns the earliest wake time across all cores (farFuture when every
// core is parked).
func (h *wakeHeap) min() uint64 {
	if h.dirty {
		for i := len(h.heap)/2 - 1; i >= 0; i-- {
			h.down(i)
		}
		h.dirty = false
	}
	return h.wake[h.heap[0]]
}

func (h *wakeHeap) less(i, j int) bool { return h.wake[h.heap[i]] < h.wake[h.heap[j]] }

func (h *wakeHeap) down(i int) {
	n := len(h.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.heap[i], h.heap[smallest] = h.heap[smallest], h.heap[i]
		i = smallest
	}
}
