package core

import (
	"math"

	"hyperpraw/internal/hypergraph"
)

// fastScanMinPartitions is the default partition count below which the
// touched-only scan is skipped: for small p the exhaustive scan's
// p·|touched| fused multiply-adds cost less than any per-vertex index
// traffic. For the uniform path the hardcoded value is only the fallback —
// the first gray-zone run measures the actual break-even on this machine
// (see calibrate.go). The blocked (cost-tier) scan pays O(B) per vertex
// for the block walk, so it amortises at the same small p as the uniform
// scan; the scalar-bound pruned scan for unstructured matrices
// (pickBounded) pays several heap pops per vertex and needs a larger p.
const (
	fastScanMinPartitions    = 32
	blockedScanMinPartitions = 32
	boundedScanMinPartitions = 128
)

// boundMargin is the relative slack added to the untouched-candidate upper
// bound of the pruned scan (pickBounded), so floating-point rounding can
// only make the scan examine more candidates than strictly necessary, never
// fewer.
const boundMargin = 1e-9

// kernel is the streaming kernel both drivers run: the candidate pickers,
// the per-vertex strategy dispatch with its adaptive kill switch, and the
// upkeep of the pickers' load caches across moves. The serial Partitioner
// and every parallelWorker embed one. The pickers read loads, which is the
// scratch's load buffer in both: the exact loads of a serial run, or a
// worker's view of the shared counters, refreshed every loadSyncEvery
// visits and updated in place by the worker's own moves.
type kernel struct {
	h    *hypergraph.Hypergraph
	cost [][]float64
	p    int

	// sc holds every reusable buffer (gather stamps, min-load index,
	// block argmin caches, assignment vectors), recycled through a
	// sync.Pool so steady-state serving is allocation-free in the kernel.
	sc *scratch

	// cidx is the cost-tier index: the matrix's structure classification
	// plus the block floors and walk orders the blocked scan consumes.
	cidx *CostIndex

	loads []int64 // aliases sc.loads

	// fastEligible caches whether the touched-only scan pays off for this
	// (cost structure, p) pair; see fastScanEligible.
	fastEligible bool

	// Per-stream scan state, set by beginStream: fast says the touched-only
	// scans run this stream, and scanOff is the adaptive kill switch that
	// the pruning evidence scanTried/scanWork trips.
	fast, scanOff       bool
	scanTried, scanWork int

	// tally accumulates kernel activity counters across streams; the
	// driver loop flushes it into Config.Stats. Always maintained (the
	// increments are noise next to the scoring arithmetic) so benchmarks
	// measure the same code path the serving layer runs.
	tally StreamStats

	// Hoisted closures for the min-load index (allocated once, not per
	// vertex).
	loadOfFn    func(int32) int64
	untouchedFn func(int32) bool
}

// setup points k at its scratch and binds the min-load closures to k.
func (k *kernel) setup(h *hypergraph.Hypergraph, cfg *Config, cidx *CostIndex, sc *scratch) {
	p := len(cfg.CostMatrix)
	*k = kernel{
		h: h, cost: cfg.CostMatrix, p: p,
		sc: sc, cidx: cidx, loads: sc.loads,
		fastEligible: fastScanEligible(*cfg, cidx, p),
	}
	k.loadOfFn = func(i int32) int64 { return k.loads[i] }
	k.untouchedFn = func(i int32) bool { return k.sc.pstamp[i] != k.sc.epoch }
}

// fastScanEligible decides whether the touched-only scan can beat the
// exhaustive one for this (cost structure, p) pair.
func fastScanEligible(cfg Config, cidx *CostIndex, p int) bool {
	if cfg.forceExhaustive || p <= 1 {
		return false
	}
	if cfg.forceTouchedOnly {
		return true
	}
	switch cidx.kind {
	case costUniform:
		// Above the probe grid's ceiling the answer cannot depend on the
		// measurement — skip the one-time calibration probe entirely so
		// large-p first requests never pay its latency.
		return p >= calFallbackCutoff || p >= uniformFastCutoff()
	case costBlocked:
		return p >= blockedScanMinPartitions
	default:
		return p >= boundedScanMinPartitions
	}
}

// beginStream prepares one stream's scan state. The fast scans need α > 0
// — the untouched-candidate ordering assumes load is a penalty — which only
// a caller-supplied Alpha0 ≤ 0 can violate; that falls back to the
// exhaustive scan.
func (k *kernel) beginStream(alpha float64, expected []float64) {
	k.fast = k.fastEligible && alpha > 0
	k.scanOff = false
	k.scanTried, k.scanWork = 0, 0
	k.reseed(expected)
}

// reseed rebuilds the fast scans' load caches from loads: the global
// min-load heap of the uniform and bounded scans, or the blocked scan's
// flat per-block argmins, all marked stale. It does nothing while the
// exhaustive scan runs.
func (k *kernel) reseed(expected []float64) {
	if !k.fast || k.scanOff {
		return
	}
	if k.cidx.kind == costBlocked {
		k.sc.resetBlockState(len(k.cidx.blocks))
	} else {
		k.sc.minIdx.reset(expected, k.loadOfFn)
	}
}

// pick returns the partition the vertex whose neighbour counts were just
// gathered moves to. cur is its current partition and penalty the
// migration term MigrationPenalty·w(v) every other candidate pays (0 for
// none).
//
// Candidate scoring dispatches on the cost-tier index's classification of
// the matrix: uniform → pickUniform (single heap pop), blocked
// (hierarchical) → pickBlocked (tiered block walk), unstructured →
// pickBounded (scalar-bound pruned scan). Every fast scan is move-for-move
// identical to the exhaustive O(p) reference (pickExhaustive) but costs
// far less per vertex.
func (k *kernel) pick(cur int32, penalty, alpha float64, expected []float64) int32 {
	t := &k.tally
	switch {
	case !k.fast || k.scanOff:
		t.ScanExhaustive++
		if k.scanOff {
			t.ExhaustiveFallbacks++
		}
		return k.pickExhaustive(cur, penalty, alpha, expected)
	case k.cidx.kind == costUniform:
		t.ScanUniform++
		return k.pickUniform(cur, penalty, alpha, expected)
	case k.cidx.kind == costBlocked:
		best, work := k.pickBlocked(cur, penalty, alpha, expected)
		t.ScanBlocked++
		t.BlockedWork += int64(work)
		k.scanTried++
		k.scanWork += work
		// The block walk wins while pruning keeps the scored set small; if
		// the observed work approaches the exhaustive scan's p, stop paying
		// the heap traffic for the rest of this stream. The next stream
		// re-evaluates.
		if k.scanTried >= 128 && k.scanWork > k.scanTried*(len(k.cidx.blocks)+k.p/2) {
			k.scanOff = true
		}
		return best
	default:
		best, pops := k.pickBounded(cur, penalty, alpha, expected)
		t.ScanBounded++
		t.BoundedPops += int64(pops)
		k.scanTried++
		k.scanWork += pops
		// The pruned scan only beats the exhaustive one when the load bound
		// closes almost immediately; once the observed pop work says
		// otherwise (α decayed, loads equalised), stop paying the heap
		// traffic for the rest of this stream.
		if k.scanTried >= 128 && k.scanWork > 3*k.scanTried {
			k.scanOff = true
		}
		return best
	}
}

// noteMove applies the move of a vertex of weight w from partition from to
// partition to to the loads, and keeps the fast scans' caches current: the
// source's load dropped, which can only improve its block's cached minimum,
// and the destination's rose. Once the kill switch has tripped — by this
// very vertex's pick too — the caches are left alone until the next reseed.
func (k *kernel) noteMove(from, to int32, w int64, expected []float64) {
	k.loads[from] -= w
	k.loads[to] += w
	if !k.fast || k.scanOff {
		return
	}
	if k.cidx.kind == costBlocked {
		k.sc.blockNoteMove(k.cidx, from, to, float64(k.loads[from])/expected[from])
	} else {
		k.sc.minIdx.update(from, k.loads[from])
		k.sc.minIdx.update(to, k.loads[to])
	}
}

// takeTally returns the counters accumulated since the last call and
// clears them.
func (k *kernel) takeTally() StreamStats {
	t := k.tally
	k.tally = StreamStats{}
	return t
}

// bestBuffer returns the pooled vertex-sized buffer the driver loop keeps
// the best partition in.
func (k *kernel) bestBuffer() []int32 {
	k.sc.bestParts = growI32(k.sc.bestParts, k.h.NumVertices())
	return k.sc.bestParts
}

// pickExhaustive scores every partition: the original O(p) kernel and the
// reference that the touched-only scans must match move for move. It
// applies the migration term as written, for any nonzero penalty.
func (k *kernel) pickExhaustive(cur int32, penalty, alpha float64, expected []float64) int32 {
	sc := k.sc
	p := k.p

	// Number of partitions holding neighbours of v; A_i(v) per eq 3.
	nbrParts := float64(len(sc.touched))

	bestPart := int32(0)
	bestVal := math.Inf(-1)
	for i := 0; i < p; i++ {
		// T_i(v) = Σ_j X_j(v)·C(i,j); C(i,i)=0 removes the self term.
		t := 0.0
		ci := k.cost[i]
		for _, j := range sc.touched {
			t += sc.xCounts[j] * ci[j]
		}
		// N_i(v): neighbour partitions other than i, normalised by p.
		ni := nbrParts
		if sc.pstamp[i] == sc.epoch {
			ni-- // v has neighbours in i itself; those don't count
		}
		ni /= float64(p)

		val := -ni*t - alpha*float64(k.loads[i])/expected[i]
		if penalty != 0 && int32(i) != cur {
			val -= penalty
		}
		if val > bestVal || (val == bestVal && int32(i) == cur) {
			bestVal = val
			bestPart = int32(i)
		}
	}
	return bestPart
}

// considerCandidate folds candidate i with value val into the running
// (bestVal, bestPart) selection, reproducing pickExhaustive's outcome from
// an arbitrary evaluation order: the exhaustive ascending-index loop returns
// the current partition if it ties the maximum, otherwise the lowest-index
// maximizer.
func considerCandidate(bestVal *float64, bestPart *int32, i, cur int32, val float64) {
	if *bestPart < 0 || val > *bestVal ||
		(val == *bestVal && (i == cur || (*bestPart != cur && i < *bestPart))) {
		*bestVal = val
		*bestPart = i
	}
}

// touchedPrunable reports whether a touched candidate can be skipped
// without paying its O(|touched|) exact communication sum: tBound
// lower-bounds its T_i(v), so −ni·tBound − loadTerm − penalty bounds its
// value from above, and the candidate is pruned when even that bound is
// strictly below the incumbent bestVal. tBound is the difference of two
// sums of magnitude up to tScale, and the subtraction cancels their
// leading digits, so the boundMargin inflation is taken relative to
// ni·tScale, not to the difference; rounding can then only make the scan
// score more candidates than necessary, never prune a winner.
func touchedPrunable(ni, tBound, tScale, loadTerm, penalty, bestVal float64) bool {
	ub := -ni*tBound - loadTerm - penalty
	ub += boundMargin * (math.Abs(ub) + ni*tScale + 1)
	return ub < bestVal
}

// heaviestTouched returns j*, the touched partition holding the most
// neighbour mass (the first such in touched order), and Σ_j X_j(v). j* is
// 0 for an isolated vertex, which has no touched partitions.
func heaviestTouched(sc *scratch) (jstar int32, sumX float64) {
	xStar := math.Inf(-1)
	for _, j := range sc.touched {
		x := sc.xCounts[j]
		sumX += x
		if x > xStar {
			xStar, jstar = x, j
		}
	}
	return jstar, sumX
}

// pickUniform is the touched-only scan for uniform off-diagonal cost
// matrices (HyperPRAW-basic, and the uniform benchmarks). Every untouched
// partition shares one communication term, so the best untouched candidate
// is exactly the minimum of W(i)/E(i) — ties on the lowest index — which the
// min-load index supplies without scanning all p. That fallback, the
// vertex's current partition (which never pays the migration penalty) and
// the heaviest touched partition j* are scored first; every other touched
// partition i is then rejected in O(1) when its value bound from
// T_i(v) = c·(ΣX − X_i) cannot beat them, and scored otherwise. Every
// scored candidate uses pickExhaustive's floating-point arithmetic
// operation for operation, and every rejected one is strictly worse than
// the incumbent, so the pick is the exhaustive one.
func (k *kernel) pickUniform(cur int32, penalty, alpha float64, expected []float64) int32 {
	sc := k.sc
	c := k.cidx.uniformC
	p := float64(k.p)
	nbrParts := float64(len(sc.touched))
	// T_i(v) of any untouched candidate, accumulated in touched order like
	// the exhaustive loop (C(i,j) = c for every touched j, since i ≠ j).
	tU := 0.0
	for _, j := range sc.touched {
		tU += sc.xCounts[j] * c
	}
	jstar, sumX := heaviestTouched(sc)
	niU := nbrParts / p
	niT := (nbrParts - 1) / p

	bestPart := int32(-1)
	bestVal := math.Inf(-1)
	scoreTouched := func(i int32) {
		// T_i for touched i drops the j == i term, which the exhaustive loop
		// adds as xCounts[i]·C(i,i) = +0.0 — a bitwise no-op.
		t := 0.0
		for _, j := range sc.touched {
			if j != i {
				t += sc.xCounts[j] * c
			}
		}
		val := -niT*t - alpha*float64(k.loads[i])/expected[i]
		if penalty > 0 && i != cur {
			val -= penalty
		}
		considerCandidate(&bestVal, &bestPart, i, cur, val)
	}
	if e, ok := sc.minIdx.popBestUntouched(k.untouchedFn); ok {
		val := -niU*tU - alpha*float64(k.loads[e.idx])/expected[e.idx]
		if penalty > 0 && e.idx != cur {
			val -= penalty
		}
		considerCandidate(&bestVal, &bestPart, e.idx, cur, val)
	}
	sc.minIdx.restore()
	curTouched := sc.pstamp[cur] == sc.epoch
	if !curTouched {
		val := -niU*tU - alpha*float64(k.loads[cur])/expected[cur]
		considerCandidate(&bestVal, &bestPart, cur, cur, val)
	}
	if len(sc.touched) == 0 {
		return bestPart
	}
	scoreTouched(jstar)
	if curTouched && cur != jstar {
		scoreTouched(cur)
	}
	for _, i := range sc.touched {
		if i == jstar || i == cur {
			continue
		}
		if touchedPrunable(niT, c*(sumX-sc.xCounts[i]), c*sumX,
			alpha*float64(k.loads[i])/expected[i], penalty, bestVal) {
			k.tally.TouchedPruned++
			continue
		}
		scoreTouched(i)
	}
	return bestPart
}

// pickBounded is the touched-only scan for general cost matrices (the
// profiled HyperPRAW-aware case). Touched partitions and the current one are
// scored exactly; untouched candidates are drawn from the min-load index in
// ascending W(i)/E(i) order and scored exactly until an upper bound on every
// remaining candidate — communication no cheaper than the smallest off-
// diagonal entry allows, load no lighter than the next candidate's — falls
// below the best value seen. The bound discriminates whenever the α-weighted
// load spread exceeds the communication-term spread (the tempering phase,
// and refinement on unbalanced loads); when it cannot (α decayed and loads
// equalised), the pop budget trips and the vertex falls back to the
// exhaustive scan, bounding the overhead at a fraction of the O(p) cost
// instead of letting the heap churn exceed it. pops reports the candidates
// examined, so the stream can stop trying once pop work dominates.
func (k *kernel) pickBounded(cur int32, penalty, alpha float64, expected []float64) (best int32, pops int) {
	sc := k.sc
	p := float64(k.p)
	nbrParts := float64(len(sc.touched))
	// Σ_j X_j(v): any candidate's communication term is ≥ minOff times this.
	sumX := 0.0
	for _, j := range sc.touched {
		sumX += sc.xCounts[j]
	}
	loS := k.cidx.minOff * sumX
	niU := nbrParts / p

	bestPart := int32(-1)
	bestVal := math.Inf(-1)
	score := func(i int32, isTouched bool) {
		t := 0.0
		ci := k.cost[i]
		for _, j := range sc.touched {
			t += sc.xCounts[j] * ci[j]
		}
		ni := nbrParts
		if isTouched {
			ni--
		}
		ni /= p
		val := -ni*t - alpha*float64(k.loads[i])/expected[i]
		if penalty > 0 && i != cur {
			val -= penalty
		}
		considerCandidate(&bestVal, &bestPart, i, cur, val)
	}
	for _, i := range sc.touched {
		score(i, true)
	}
	if sc.pstamp[cur] != sc.epoch {
		score(cur, false)
	}
	budget := boundedPopBudget(k.p)
	for ; budget > 0; budget-- {
		e, ok := sc.minIdx.popBestUntouched(k.untouchedFn)
		if !ok {
			break
		}
		pops++
		// Upper bound for e and everything after it (larger W/E); inflated
		// so rounding can only widen the scan, never cut a winner.
		ub := -niU*loS - alpha*e.q
		ub += boundMargin * (math.Abs(ub) + 1)
		if ub < bestVal {
			break
		}
		score(e.idx, false)
	}
	sc.minIdx.restore()
	if budget == 0 {
		// The bound is not pruning on this vertex; the exhaustive reference
		// costs less than draining the heap and returns the identical pick.
		k.tally.ExhaustiveFallbacks++
		return k.pickExhaustive(cur, penalty, alpha, expected), pops
	}
	return bestPart, pops
}

// boundedPopBudget is how many untouched candidates pickBounded examines
// before conceding that the load bound is not pruning and handing the vertex
// to the exhaustive scan.
func boundedPopBudget(p int) int {
	b := p / 8
	if b < 8 {
		b = 8
	}
	return b
}

// pickBlocked is the tiered touched-only scan for hierarchical (blocked)
// cost matrices, the profiled HyperPRAW-aware case the CostIndex was built
// for. Every block's floor sum Σ_j X_j·floorsTo[j][b] is precomputed in
// one contiguous pass first. The vertex's heaviest neighbour partition j*,
// its current partition, and the globally least-loaded partition's best
// available member (the load champion) are then scored exactly, and every
// other touched partition i of block b is rejected in O(1) when its value
// bound from T_i(v) ≥ floor sum of b − X_i·floorsTo[i][b] (the floor sum
// with i's own term removed) cannot beat them. The remaining candidates
// are walked block by block in ascending communication floor relative to
// j*. A block is rejected in O(1) when even (floor comm, exact min member
// load) cannot beat the incumbent — the floor sums are tight to
// within-block noise, which is what the scalar min(C)·ΣX bound of
// pickBounded cannot offer; a surviving block scores members in ascending
// (W(i)/E(i), i) until the same bound closes. For an exact block the floor
// sum IS every member's communication term, so the first member scored
// (the block's lowest-(load, index) one, which dominates its siblings
// under the exhaustive tie-break) settles the whole block in O(1) after
// the shared floor pass.
//
// work approximates the scan's cost in units of one exhaustive candidate
// evaluation, so the stream can fall back when the walk stops pruning.
// Move-for-move parity with pickExhaustive holds by the same argument as
// the other fast scans: every scored candidate uses the identical
// floating-point evaluation, pruning is strict (a pruned candidate is
// strictly worse than the incumbent, margin-inflated against rounding),
// and considerCandidate reproduces the exhaustive tie-break from any
// evaluation order. A pruned touched candidate is strictly worse than the
// incumbent, so the walk starts from the same (bestVal, bestPart) as if
// every touched partition had been scored.
//
// A parallel worker's block argmin caches cover mostly its own blocks'
// loads under block-aligned ownership, so peer moves rarely invalidate them
// between sync points; any residual staleness only mis-orders the
// candidate search, consistent with the GraSP relaxation.
func (k *kernel) pickBlocked(cur int32, penalty, alpha float64, expected []float64) (best int32, work int) {
	sc := k.sc
	ci := k.cidx
	p := float64(k.p)
	nbrParts := float64(len(sc.touched))
	epoch := sc.epoch
	// j*: the anchor whose block order the walk follows (any anchor is
	// correct; the heaviest makes the floor gaps steepest).
	jstar, _ := heaviestTouched(sc)
	niU := nbrParts / p
	niT := (nbrParts - 1) / p

	// All block floor sums in one contiguous pass, accumulated in touched
	// order like every exact evaluation: tLBAll[b] lower-bounds any
	// member's T_i, and IS the member's T_i when the block is exact.
	tLBAll := sc.tLBAll
	for b := range tLBAll {
		tLBAll[b] = 0
	}
	for _, j := range sc.touched {
		x := sc.xCounts[j]
		floors := ci.floorsTo[j]
		for b := range tLBAll {
			tLBAll[b] += x * floors[b]
		}
	}
	work += len(sc.touched) * len(tLBAll) / 64

	bestPart := int32(-1)
	bestVal := math.Inf(-1)
	score := func(i int32, isTouched bool, tExact float64, haveT bool) {
		t := tExact
		if !haveT {
			t = 0.0
			row := k.cost[i]
			for _, j := range sc.touched {
				t += sc.xCounts[j] * row[j]
			}
		}
		ni := nbrParts
		if isTouched {
			ni--
		}
		ni /= p
		val := -ni*t - alpha*float64(k.loads[i])/expected[i]
		if penalty > 0 && i != cur {
			val -= penalty
		}
		sc.sstamp[i] = epoch
		considerCandidate(&bestVal, &bestPart, i, cur, val)
	}
	if len(sc.touched) > 0 {
		score(jstar, true, 0, false)
	}
	curTouched := sc.pstamp[cur] == epoch
	if !curTouched || cur != jstar {
		score(cur, curTouched, 0, false)
	}

	// Refresh stale block minima and find the champion block — the one
	// holding the globally least-loaded partition. Scoring its best
	// available member early hands every later bound the strongest load
	// incumbent the candidate set can produce.
	champ := int32(-1)
	q0 := math.Inf(1)
	for b := range sc.blockMinQ {
		if sc.blockStale[b] {
			k.refreshBlockMin(int32(b), expected)
			work++
		}
		if sc.blockMinQ[b] < q0 {
			q0, champ = sc.blockMinQ[b], int32(b)
		}
	}
	if champ >= 0 {
		// The champion's cached argmin is usually still available (only
		// touched/current partitions are scored so far) — no scan needed.
		if i := sc.blockMinIdx[champ]; sc.pstamp[i] != epoch && sc.sstamp[i] != epoch {
			score(i, false, 0, false)
		} else if i, _, ok := k.minAvailableInBlock(champ, expected); ok {
			work++
			score(i, false, 0, false)
		}
	}

	for _, i := range sc.touched {
		if i == jstar || i == cur {
			continue
		}
		if b := ci.blockOf[i]; len(ci.blocks[b].members) > 1 &&
			touchedPrunable(niT, tLBAll[b]-sc.xCounts[i]*ci.floorsTo[i][b], tLBAll[b],
				alpha*float64(k.loads[i])/expected[i], penalty, bestVal) {
			k.tally.TouchedPruned++
			continue
		}
		score(i, true, 0, false)
	}

	for _, b := range ci.blockOrder[jstar] {
		tLB := tLBAll[b]
		// O(1) block rejection: blockMinQ[b] is the exact minimum
		// normalised load over the block's members (a lower bound for
		// the unscored ones), so if even (floor comm, min load) cannot
		// beat the incumbent, nothing in the block can. Inflated so
		// rounding can only widen the scan.
		ubBlock := -niU*tLB - alpha*sc.blockMinQ[b] - penalty
		ubBlock += boundMargin * (math.Abs(ubBlock) + 1)
		if ubBlock < bestVal {
			k.tally.BlockRejections++
			continue
		}
		exact := ci.blocks[b].exact
		first := true
		for {
			var i int32
			var q float64
			var ok bool
			// The cached argmin doubles as the block's first candidate
			// when still available, skipping one member scan.
			if i = sc.blockMinIdx[b]; first && sc.pstamp[i] != epoch && sc.sstamp[i] != epoch {
				q, ok = sc.blockMinQ[b], true
			} else {
				i, q, ok = k.minAvailableInBlock(b, expected)
				work++
			}
			first = false
			if !ok {
				break
			}
			// Upper bound for this member and everything after it in the
			// block (heavier load, communication no cheaper than the
			// floor).
			ub := -niU*tLB - alpha*q - penalty
			ub += boundMargin * (math.Abs(ub) + 1)
			if ub < bestVal {
				break
			}
			score(i, false, tLB, exact)
			if exact {
				// Exact block: every sibling shares this T_i, so the
				// lowest-(load, index) member just scored dominates them
				// under the exhaustive tie-break.
				k.tally.ExactSettles++
				break
			}
		}
	}
	return bestPart, work
}

// refreshBlockMin recomputes block b's cached (min load, argmin) from the
// loads.
func (k *kernel) refreshBlockMin(b int32, expected []float64) {
	sc := k.sc
	bq, bi := math.Inf(1), int32(-1)
	for _, i := range k.cidx.blocks[b].members {
		if q := float64(k.loads[i]) / expected[i]; q < bq {
			bq, bi = q, i
		}
	}
	sc.blockMinQ[b], sc.blockMinIdx[b] = bq, bi
	sc.blockStale[b] = false
}

// minAvailableInBlock returns block b's least-loaded member (ties to the
// lowest index) that is neither touched nor already scored for the
// current vertex; ok is false when every member is spoken for.
func (k *kernel) minAvailableInBlock(b int32, expected []float64) (idx int32, q float64, ok bool) {
	sc := k.sc
	epoch := sc.epoch
	bq, bi := math.Inf(1), int32(-1)
	for _, i := range k.cidx.blocks[b].members {
		if sc.pstamp[i] == epoch || sc.sstamp[i] == epoch {
			continue
		}
		if qi := float64(k.loads[i]) / expected[i]; qi < bq {
			bq, bi = qi, i
		}
	}
	if bi < 0 {
		return 0, 0, false
	}
	return bi, bq, true
}
