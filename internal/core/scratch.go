package core

import (
	"math"
	"math/bits"
	"sync"

	"hyperpraw/internal/hypergraph"
)

// scratch bundles every reusable buffer one streaming kernel needs: the
// epoch-stamped neighbour gather, the min-load index of the touched-only
// scan, the frontier stamps of frontier restreaming, the assignment/load
// vectors, and the neighbour-pair counts behind the convergence check.
//
// Scratches are recycled through a package-level sync.Pool so a long-lived
// server partitioning job after job stops allocating in the kernel: New (and
// PartitionParallel's per-worker scratches) acquire from the pool and
// Partitioner.Release returns them. The epoch counters live here and only
// ever grow, which is what makes reuse safe — stamps written for a previous
// (possibly larger) hypergraph can never equal a future epoch.
type scratch struct {
	// Distinct-neighbour gather state (paper eq 4).
	vstamp  []int32
	pstamp  []int32
	epoch   int32
	xCounts []float64
	touched []int32

	// Touched-only candidate scan state.
	minIdx minLoadIndex

	// Blocked (cost-tier) scan state: sstamp marks partitions already
	// scored for the current vertex (same epoch scheme as pstamp);
	// tLBAll is the per-vertex vector of block floor sums. Blocks are
	// small (a socket's worth of partitions), so their load minima are
	// kept as a flat cached argmin per block — blockMinQ/blockMinIdx,
	// invalidated through blockStale — rather than heaps: maintenance is
	// O(1) per move (a load decrease can only improve the cached
	// minimum; a load increase on the cached argmin marks the block
	// stale) and a stale block is recomputed lazily by one contiguous
	// member scan, which beats heap pointer-chasing by a wide margin at
	// these sizes.
	sstamp      []int32
	blockMinQ   []float64
	blockMinIdx []int32
	blockStale  []bool
	tLBAll      []float64

	// Frontier restreaming stamps: dirty[v] holds the latest pass index for
	// which v must be re-streamed.
	dirty []int32

	// Assignment/load state for a serial Partitioner. A parallel worker
	// shares assignment state through parallelState instead and reuses
	// loads as its private load view; a parallel run keeps its best
	// partition in its first worker's bestParts.
	parts     []int32
	loads     []int64
	bestParts []int32
	order     []int32
	expected  []float64

	// Parallel-worker state: delta batches the worker's unflushed load
	// changes against the shared counters (must be re-zeroed on acquire —
	// a pooled scratch may carry another run's residue); blockVerts is the
	// worker's share of the per-block vertex census. Both are grown lazily
	// by the parallel kernel only.
	delta      []int64
	blockVerts []int64

	// pairs holds the neighbour-pair counts behind the convergence check
	// (see pairCounts). A serial run recounts them when the assignment is
	// reset and then maintains them move by move from the X_j(v) each
	// visit already gathered. There is one matrix per run, never one per
	// worker: a parallel run keeps it in its first worker's scratch, and
	// the other workers' scratches leave this field alone.
	pairs pairCounts
}

var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

// acquireScratch takes a scratch from the pool and sizes the buffers every
// kernel needs: the gather state and the p-sized load vectors. The other
// nv-sized buffers (parts/bestParts/order/dirty) and the p×p pair matrix
// are grown lazily by the code paths that actually use them, so parallel
// workers — which share assignment state through parallelState — and
// feature-off serial runs don't allocate or pin arrays they never touch.
// Growing reallocates (zeroed, which is always safe); shrinking reslices,
// leaving stale stamps that the monotone epoch counters never collide with.
func acquireScratch(nv, p int) *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.vstamp = growI32(sc.vstamp, nv)
	sc.pstamp = growI32(sc.pstamp, p)
	sc.sstamp = growI32(sc.sstamp, p)
	sc.touched = sc.touched[:0]
	if cap(sc.xCounts) < p {
		sc.xCounts = make([]float64, p)
		sc.expected = make([]float64, p)
	} else {
		sc.xCounts = sc.xCounts[:p]
		sc.expected = sc.expected[:p]
	}
	if cap(sc.loads) < p {
		sc.loads = make([]int64, p)
	} else {
		sc.loads = sc.loads[:p]
	}
	return sc
}

func releaseScratch(sc *scratch) {
	if sc != nil {
		scratchPool.Put(sc)
	}
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// gather fills xCounts/touched with X_j(v) under the assignment parts: the
// number of distinct neighbours of v in each partition j (paper eq 4).
// Distinctness is enforced with epoch stamps so a neighbour shared by
// several hyperedges counts once, and v itself never counts. With weighted
// set the semantics switch to hyperedge-weighted pin incidences: every
// (edge, neighbour) pair contributes w(e), modelling per-edge
// communication volume (§8.2).
func (sc *scratch) gather(h *hypergraph.Hypergraph, parts []int32, v int, weighted bool) {
	epoch := sc.bumpEpoch()
	sc.vstamp[v] = epoch
	sc.touched = sc.touched[:0]
	for _, e := range h.IncidentEdges(v) {
		w := 1.0
		if weighted {
			w = float64(h.EdgeWeight(int(e)))
		}
		for _, u := range h.Pins(int(e)) {
			if weighted {
				if int(u) == v {
					continue
				}
			} else if sc.vstamp[u] == epoch {
				continue
			} else {
				sc.vstamp[u] = epoch
			}
			part := parts[u]
			if sc.pstamp[part] != epoch {
				sc.pstamp[part] = epoch
				sc.xCounts[part] = 0
				sc.touched = append(sc.touched, part)
			}
			sc.xCounts[part] += w
		}
	}
}

// pairCounts is the p×p row-major matrix of neighbour-pair counts: m[a·p+j]
// counts the ordered pairs (v, u) of distinct neighbours with v in
// partition a and u in partition j (hyperedge-weighted with
// UseEdgeWeights), so PC(P) is Σ_a Σ_j m[a·p+j]·C(a,j) — see cost. A small
// hypergraph on a wide machine fills few of the p² cells, so the bitmap nz
// marks every nonzero cell (bit j of row a's words), and the per-pass sum
// and the recount's clear visit only marked cells, not all p². A mark may
// outlive its count — a move only ever sets marks, so that decrements stay
// plain subtractions — until cost or a recount next reads the cell and
// clears it. Rows own whole bitmap words, so parallel workers recounting
// disjoint row ranges never share a word.
type pairCounts struct {
	p, words int // partitions, bitmap words per row
	m        []int64
	nz       []uint64
}

// size lays the matrix out for p partitions. A matrix already laid out for
// p is left as it is — its marks cover its nonzero cells, and countPairs
// clears rows through them — so only a change of p pays the O(p²) zeroing.
func (pc *pairCounts) size(p int) {
	if pc.p == p {
		return
	}
	pc.p, pc.words = p, (p+63)/64
	pc.m = growI64(pc.m, p*p)
	if cap(pc.nz) < p*pc.words {
		pc.nz = make([]uint64, p*pc.words)
	} else {
		pc.nz = pc.nz[:p*pc.words]
	}
	for i := range pc.m {
		pc.m[i] = 0
	}
	for i := range pc.nz {
		pc.nz[i] = 0
	}
}

// cost evaluates PC(P) = Σ_a (Σ_j m[a·p+j]·C(a,j)): rows in ascending a,
// nonzero cells in ascending j, clearing the marks of cells found zero.
// The counts are integers and the order is fixed, so the value depends
// only on the partition — never on the moves that led to it or on how a
// parallel recount was split across workers — and costs
// O(p²/64 + marked cells) instead of a walk over every neighbourhood. It
// differs from metrics.CommCost's vertex-order sum by rounding only.
func (pc *pairCounts) cost(cost [][]float64) float64 {
	total := 0.0
	for a, c := range cost {
		row := 0.0
		m := pc.m[a*pc.p : (a+1)*pc.p]
		marks := pc.nz[a*pc.words : (a+1)*pc.words]
		for k, word := range marks {
			for rest := word; rest != 0; rest &= rest - 1 {
				j := k<<6 + bits.TrailingZeros64(rest)
				if m[j] == 0 {
					word &^= 1 << (j & 63)
					continue
				}
				row += float64(m[j]) * c[j]
			}
			marks[k] = word
		}
		total += row
	}
	return total
}

// countPairs recounts rows [lo, hi) of pc: it clears their marked cells,
// then every vertex whose partition lies in [lo, hi) adds its gathered
// X_j(v) to its row. Over all p rows this is the matrix of parts; over a
// row range it is one parallel worker's disjoint share of the barrier
// recount, written straight into the run's single matrix.
func (sc *scratch) countPairs(h *hypergraph.Hypergraph, parts []int32, weighted bool, pc *pairCounts, lo, hi int) {
	for a := lo; a < hi; a++ {
		marks := pc.nz[a*pc.words : (a+1)*pc.words]
		for k, word := range marks {
			for ; word != 0; word &= word - 1 {
				pc.m[a*pc.p+k<<6+bits.TrailingZeros64(word)] = 0
			}
			marks[k] = 0
		}
	}
	for v, a := range parts {
		if int(a) < lo || int(a) >= hi {
			continue
		}
		sc.gather(h, parts, v, weighted)
		row, marks := pc.m[int(a)*pc.p:], pc.nz[int(a)*pc.words:]
		for _, j := range sc.touched {
			row[j] += int64(sc.xCounts[j])
			marks[j>>6] |= 1 << (j & 63)
		}
	}
}

// movePairs applies the move of the vertex just gathered from partition a
// to partition b: its pairs (v, u) leave row a for row b and their mirror
// images (u, v) leave column a for column b. The neighbour relation is
// symmetric, so the mirror count of each touched j is X_j(v) too, and the
// j = a and j = b cases need no special handling. Only the two cells that
// gain pairs need marks.
func (sc *scratch) movePairs(a, b int32) {
	pc := &sc.pairs
	p, m := pc.p, pc.m
	ra, rb := int(a)*p, int(b)*p
	marksB := pc.nz[int(b)*pc.words:]
	kb, bitB := int(b)>>6, uint64(1)<<(b&63)
	for _, j := range sc.touched {
		x := int64(sc.xCounts[j])
		rj := int(j) * p
		m[ra+int(j)] -= x
		m[rj+int(a)] -= x
		m[rb+int(j)] += x
		m[rj+int(b)] += x
		marksB[j>>6] |= 1 << (j & 63)
		pc.nz[int(j)*pc.words+kb] |= bitB
	}
}

// bumpEpoch advances the gather epoch, handling the (extremely long run)
// wraparound by zeroing every stamp and restarting at 1, so a stale stamp
// can never equal a post-wrap epoch.
func (sc *scratch) bumpEpoch() int32 {
	sc.epoch++
	if sc.epoch == math.MaxInt32 {
		for i := range sc.vstamp {
			sc.vstamp[i] = 0
		}
		for i := range sc.pstamp {
			sc.pstamp[i] = 0
		}
		for i := range sc.sstamp {
			sc.sstamp[i] = 0
		}
		sc.epoch = 1
	}
	return sc.epoch
}

// resetBlockState prepares the blocked scan's per-block load-minimum
// caches for one stream: every block starts stale and is recomputed from
// the live loads on first use.
func (sc *scratch) resetBlockState(nb int) {
	if cap(sc.blockMinQ) < nb {
		sc.blockMinQ = make([]float64, nb)
		sc.blockMinIdx = make([]int32, nb)
		sc.blockStale = make([]bool, nb)
		sc.tLBAll = make([]float64, nb)
	} else {
		sc.blockMinQ = sc.blockMinQ[:nb]
		sc.blockMinIdx = sc.blockMinIdx[:nb]
		sc.blockStale = sc.blockStale[:nb]
		sc.tLBAll = sc.tLBAll[:nb]
	}
	for b := range sc.blockStale {
		sc.blockStale[b] = true
	}
}

// blockNoteMove maintains the cached block minima across one vertex move:
// the source partition's load dropped (it can only improve its block's
// cached minimum), the destination's rose (if it was its block's cached
// argmin, the cache must be recomputed before its next use).
func (sc *scratch) blockNoteMove(idx *CostIndex, from, to int32, qFrom float64) {
	bf := idx.blockOf[from]
	if !sc.blockStale[bf] &&
		(qFrom < sc.blockMinQ[bf] || (qFrom == sc.blockMinQ[bf] && from < sc.blockMinIdx[bf])) {
		sc.blockMinQ[bf], sc.blockMinIdx[bf] = qFrom, from
	}
	bt := idx.blockOf[to]
	if !sc.blockStale[bt] && sc.blockMinIdx[bt] == to {
		sc.blockStale[bt] = true
	}
}
