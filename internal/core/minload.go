package core

// minLoadIndex is an incrementally maintained argmin over the normalised
// partition loads W(i)/E(i), used by the touched-only candidate scan to find
// the best *untouched* partition without scanning all p of them.
//
// It is a lazy binary min-heap keyed by (load/expected, partition index)
// with sequence-numbered entries: every load change bumps the partition's
// sequence and pushes a new entry, making exactly one entry per partition
// canonical (the latest sequence). Superseded entries are discarded when
// they surface — each at most once, so maintenance is amortised O(log p)
// per move. Canonical entries popped during one vertex's candidate search
// (the fresh minimum, plus any touched partitions that sorted before it) are
// stashed and restored afterwards, so the index survives the whole stream.
//
// A worker keys its index off its private load view (refreshed from the
// shared counters at stream start and, with several workers, at epoch
// boundaries, plus its own moves applied eagerly). A lone worker's view is
// exact, so a canonical entry's key is always the live load. With several
// workers it calls reset when the view is refreshed mid-stream; between
// refreshes a peer's move leaves a canonical key slightly stale, which only
// mis-orders the candidate search — consistent with the GraSP-style
// relaxation the parallel variant already accepts.
type minLoadIndex struct {
	entries  []minLoadEntry
	seq      []uint32 // per-partition canonical sequence number
	expected []float64
	stash    []minLoadEntry // canonical entries popped during one selection
	p        int
	// compactAt is the entry count that triggers the next wholesale
	// discard of superseded entries. It doubles after every compaction
	// (floored at 4p+1024) so compaction work stays amortised O(1) per
	// push: move-heavy streams produce two superseded entries per move
	// but surface (and so discard) them only as pops reach the top, and
	// with a fixed threshold a stream hovering just above it would
	// re-compact on every restore.
	compactAt int
}

type minLoadEntry struct {
	q   float64 // load/expected at push time
	idx int32
	seq uint32 // canonical iff == seq[idx]
}

func (m *minLoadIndex) less(a, b minLoadEntry) bool {
	if a.q != b.q {
		return a.q < b.q
	}
	return a.idx < b.idx
}

// reset rebuilds the heap from the live loads: one canonical entry per
// partition. Called at the start of every stream.
func (m *minLoadIndex) reset(expected []float64, loadOf func(int32) int64) {
	m.expected = expected
	m.p = len(expected)
	if cap(m.seq) < m.p {
		m.seq = make([]uint32, m.p)
	} else {
		m.seq = m.seq[:m.p]
		for i := range m.seq {
			m.seq[i] = 0
		}
	}
	m.entries = m.entries[:0]
	m.stash = m.stash[:0]
	m.compactAt = m.minCompactAt()
	for i := 0; i < m.p; i++ {
		q := float64(loadOf(int32(i))) / expected[i]
		m.entries = append(m.entries, minLoadEntry{q: q, idx: int32(i)})
	}
	// Reverse-order sift-down heapify, O(p).
	for i := len(m.entries)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
}

// update records a load change for partition i; the previous entry for i is
// superseded and discarded lazily when it surfaces.
func (m *minLoadIndex) update(i int32, load int64) {
	m.seq[i]++
	m.push(minLoadEntry{q: float64(load) / m.expected[i], idx: i, seq: m.seq[i]})
}

// popBestUntouched pops entries until it finds a canonical one whose
// partition is untouched per the callback; that entry is stashed and
// returned. Canonical entries for touched partitions are stashed too (they
// stay valid for the next vertex); superseded entries are dropped. ok is
// false once every remaining partition is touched.
func (m *minLoadIndex) popBestUntouched(untouched func(int32) bool) (minLoadEntry, bool) {
	for len(m.entries) > 0 {
		e := m.pop()
		if e.seq != m.seq[e.idx] {
			continue // superseded by a later update
		}
		m.stash = append(m.stash, e)
		if untouched(e.idx) {
			return e, true
		}
	}
	return minLoadEntry{}, false
}

// restore puts every stashed canonical entry back; call once per vertex
// after candidate selection.
func (m *minLoadIndex) restore() {
	for _, e := range m.stash {
		m.push(e)
	}
	m.stash = m.stash[:0]
	// Superseded entries accumulate ~2 per move; drop them wholesale once
	// they clearly dominate so a long stream stays O(p) in space.
	if len(m.entries) > m.compactAt {
		m.compact()
		m.compactAt = 2 * (len(m.entries) + m.minCompactAt())
	}
}

func (m *minLoadIndex) minCompactAt() int { return 4*m.p + 1024 }

// compact filters the heap down to the canonical entry per partition.
func (m *minLoadIndex) compact() {
	kept := m.entries[:0]
	for _, e := range m.entries {
		if e.seq == m.seq[e.idx] {
			kept = append(kept, e)
		}
	}
	m.entries = kept
	for i := len(m.entries)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
}

func (m *minLoadIndex) push(e minLoadEntry) {
	m.entries = append(m.entries, e)
	i := len(m.entries) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !m.less(m.entries[i], m.entries[parent]) {
			break
		}
		m.entries[i], m.entries[parent] = m.entries[parent], m.entries[i]
		i = parent
	}
}

func (m *minLoadIndex) pop() minLoadEntry {
	top := m.entries[0]
	last := len(m.entries) - 1
	m.entries[0] = m.entries[last]
	m.entries = m.entries[:last]
	if last > 0 {
		m.siftDown(0)
	}
	return top
}

func (m *minLoadIndex) siftDown(i int) {
	n := len(m.entries)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && m.less(m.entries[left], m.entries[smallest]) {
			smallest = left
		}
		if right < n && m.less(m.entries[right], m.entries[smallest]) {
			smallest = right
		}
		if smallest == i {
			return
		}
		m.entries[i], m.entries[smallest] = m.entries[smallest], m.entries[i]
		i = smallest
	}
}
