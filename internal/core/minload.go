package core

// minLoadIndex is an incrementally maintained argmin over the normalised
// partition loads W(i)/E(i), used by the touched-only candidate scan to find
// the best *untouched* partition without scanning all p of them.
//
// It is an indexed binary min-heap keyed by (load/expected, partition
// index): one entry per partition, and pos locates each partition's entry,
// so a load change re-sifts that entry in place. A touched partition is
// never removed. Every untouched entry either has only touched ancestors or
// sits below one that does, and heap order makes that ancestor no larger,
// so the best untouched entry is found by walking down from the root
// through touched entries only: O(|touched|) per vertex, and the heap is
// read, never popped or rebuilt.
//
// A worker keys its index off its private load view (refreshed from the
// shared counters at stream start and, with several workers, at epoch
// boundaries, plus its own moves applied eagerly). A lone worker's view is
// exact, so every key is the live load. With several workers it calls reset
// when the view is refreshed mid-stream; between refreshes a peer's move
// leaves a key slightly stale, which only mis-orders the candidate search —
// consistent with the GraSP-style relaxation the parallel variant already
// accepts.
type minLoadIndex struct {
	heap     []minLoadEntry
	pos      []int32 // pos[i] is partition i's slot in heap
	expected []float64
	walk     []int32 // bestUntouched's pending slots
}

type minLoadEntry struct {
	q   float64 // load/expected
	idx int32
}

func (a minLoadEntry) less(b minLoadEntry) bool {
	if a.q != b.q {
		return a.q < b.q
	}
	return a.idx < b.idx
}

// reset rebuilds the heap from loads: one entry per partition. Called at
// the start of every stream and whenever a worker refreshes its view.
func (m *minLoadIndex) reset(expected []float64, loads []int64) {
	m.expected = expected
	p := len(expected)
	m.heap = grow(m.heap, p)
	m.pos = grow(m.pos, p)
	for i := range m.heap {
		m.heap[i] = minLoadEntry{q: float64(loads[i]) / expected[i], idx: int32(i)}
		m.pos[i] = int32(i)
	}
	// Reverse-order sift-down heapify, O(p).
	for n := p/2 - 1; n >= 0; n-- {
		m.down(n)
	}
}

// update records partition i's new load, re-sifting its entry in place.
func (m *minLoadIndex) update(i int32, load int64) {
	n := int(m.pos[i])
	m.heap[n].q = float64(load) / m.expected[i]
	m.down(m.up(n))
}

// bestUntouched returns the least (load, index) entry whose partition is
// untouched, that is pstamp[idx] != epoch; ok is false when every partition
// is touched. It descends only below touched entries, and skips a subtree
// whose root cannot beat the best untouched entry found so far.
func (m *minLoadIndex) bestUntouched(pstamp []int32, epoch int32) (best minLoadEntry, ok bool) {
	h := m.heap
	walk := append(m.walk[:0], 0)
	for len(walk) > 0 {
		n := walk[len(walk)-1]
		walk = walk[:len(walk)-1]
		if int(n) >= len(h) {
			continue
		}
		e := h[n]
		switch {
		case ok && !e.less(best):
		case pstamp[e.idx] != epoch:
			best, ok = e, true
		default:
			walk = append(walk, 2*n+2, 2*n+1)
		}
	}
	m.walk = walk
	return best, ok
}

// up moves the entry at slot n toward the root while it beats its parent,
// and returns its new slot.
func (m *minLoadIndex) up(n int) int {
	h := m.heap
	e := h[n]
	for n > 0 {
		parent := (n - 1) / 2
		if !e.less(h[parent]) {
			break
		}
		h[n] = h[parent]
		m.pos[h[n].idx] = int32(n)
		n = parent
	}
	h[n] = e
	m.pos[e.idx] = int32(n)
	return n
}

// down moves the entry at slot n toward the leaves while a child beats it.
func (m *minLoadIndex) down(n int) {
	h := m.heap
	e := h[n]
	for {
		c := 2*n + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].less(h[c]) {
			c = r
		}
		if !h[c].less(e) {
			break
		}
		h[n] = h[c]
		m.pos[h[n].idx] = int32(n)
		n = c
	}
	h[n] = e
	m.pos[e.idx] = int32(n)
}
