package core

import (
	"math"

	"hyperpraw/internal/hypergraph"
)

// fastScanMinPartitions is the partition count below which the uniform
// and blocked touched-only scans are skipped: for small p the exhaustive
// scan's p·|touched| fused multiply-adds cost less than any per-vertex
// index traffic. Warm passes on catalog instances put the uniform scan's
// break-even at 32 (see README, Performance); the blocked (cost-tier) scan
// pays O(B) per vertex for the block walk, so it amortises at the same
// small p.
const fastScanMinPartitions = 32

// boundMargin is the relative slack added to the fast scans' value upper
// bounds, so floating-point rounding can only make a scan score more
// candidates than strictly necessary, never fewer.
const boundMargin = 1e-9

// kernel is the streaming kernel every worker runs: the candidate pickers,
// the per-vertex strategy dispatch with its adaptive kill switch, and the
// upkeep of the pickers' load caches across moves. Each worker of a
// Partitioner embeds one. The pickers read loads, the worker's view of the
// shared load counters: exact for a lone worker, and with several
// refreshed every loadSyncEvery visits and updated in place by the
// worker's own moves.
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
}

// setup points k at its scratch.
func (k *kernel) setup(h *hypergraph.Hypergraph, cfg *Config, cidx *CostIndex, sc *scratch) {
	p := len(cfg.CostMatrix)
	*k = kernel{
		h: h, cost: cfg.CostMatrix, p: p,
		sc: sc, cidx: cidx, loads: sc.loads,
		fastEligible: fastScanEligible(*cfg, cidx, p),
	}
}

// fastScanEligible decides whether the touched-only scan can beat the
// exhaustive one for this (cost structure, p) pair. A matrix without
// uniform or block structure has no fast scan: it is always scanned
// exhaustively.
func fastScanEligible(cfg Config, cidx *CostIndex, p int) bool {
	if cfg.forceExhaustive || p <= 1 || cidx.kind == costUnstructured {
		return false
	}
	return cfg.forceTouchedOnly || p >= fastScanMinPartitions
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

// reseed rebuilds the fast scans' load caches from loads: the uniform
// scan's global min-load heap, or the blocked scan's flat per-block
// argmins, all marked stale. It does nothing while the exhaustive scan
// runs.
func (k *kernel) reseed(expected []float64) {
	if !k.fast || k.scanOff {
		return
	}
	if k.cidx.kind == costBlocked {
		k.sc.resetBlockState(len(k.cidx.blocks))
	} else {
		k.sc.minIdx.reset(expected, k.loads)
	}
}

// pick returns the partition the vertex whose neighbour counts were just
// gathered moves to. cur is its current partition and penalty the
// migration term MigrationPenalty·w(v) every other candidate pays (0 for
// none).
//
// Candidate scoring dispatches on the cost-tier index's classification of
// the matrix: uniform → pickUniform (one min-load heap walk), blocked
// (hierarchical) → pickBlocked (tiered block walk), unstructured → the
// exhaustive O(p) reference (pickExhaustive). Every fast scan is
// move-for-move identical to the reference but costs far less per vertex.
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
	default:
		best, work := k.pickBlocked(cur, penalty, alpha, expected)
		t.ScanBlocked++
		t.BlockedWork += int64(work)
		k.scanTried++
		k.scanWork += work
		// The block walk wins while pruning keeps the scored set small; if
		// the observed work approaches the exhaustive scan's p, stop paying
		// for the block walk for the rest of this stream. The next stream
		// re-evaluates.
		if k.scanTried >= 128 && k.scanWork > k.scanTried*(len(k.cidx.blocks)+k.p/2) {
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

// value is eq. 1 for candidate partition i of the vertex whose neighbour
// counts were just gathered, V_i(v) = −N_i(v)·T_i(v) − α·W(i)/E(i), less
// the migration penalty when i is not the vertex's current partition cur.
// ni is N_i(v) normalised by p and t is T_i(v). Every picker scores its
// candidates here, which is what makes their picks bitwise comparable.
func (k *kernel) value(i, cur int32, ni, t, penalty, alpha float64, expected []float64) float64 {
	val := -ni*t - alpha*float64(k.loads[i])/expected[i]
	if penalty > 0 && i != cur {
		val -= penalty
	}
	return val
}

// comm is T_i(v) = Σ_j X_j(v)·C(i,j), read from cost row i in touched
// order; C(i,i) = 0 makes a touched i's own term a bitwise no-op.
func (k *kernel) comm(i int32) float64 {
	sc := k.sc
	row := k.cost[i]
	t := 0.0
	for _, j := range sc.touched {
		t += sc.xCounts[j] * row[j]
	}
	return t
}

// pickExhaustive scores every partition: the original O(p) kernel and the
// reference that the touched-only scans must match move for move.
func (k *kernel) pickExhaustive(cur int32, penalty, alpha float64, expected []float64) int32 {
	sc := k.sc
	p := float64(k.p)

	// Number of partitions holding neighbours of v; A_i(v) per eq 3.
	// N_i(v) counts those other than i, normalised by p.
	nbrParts := float64(len(sc.touched))
	niU := nbrParts / p
	niT := (nbrParts - 1) / p

	bestPart := int32(0)
	bestVal := math.Inf(-1)
	// An int counter, not int32: indexing with an int32 keeps a widened
	// copy live across comm's loop, which then spills its own counter.
	for i := 0; i < k.p; i++ {
		ni := niU
		if sc.pstamp[i] == sc.epoch {
			ni = niT // v has neighbours in i itself; those don't count
		}
		val := k.value(int32(i), cur, ni, k.comm(int32(i)), penalty, alpha, expected)
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

// loadPrunable reports whether an untouched candidate with normalised load
// q can be skipped: tLB lower-bounds its T_i(v), so −ni·tLB − α·q − penalty
// bounds its value from above, and it is pruned when even that bound is
// strictly below the incumbent bestVal. The same holds for every candidate
// with a load of at least q. Inflated so rounding can only widen the scan.
func loadPrunable(ni, tLB, alpha, q, penalty, bestVal float64) bool {
	ub := -ni*tLB - alpha*q - penalty
	ub += boundMargin * (math.Abs(ub) + 1)
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
		considerCandidate(&bestVal, &bestPart, i, cur, k.value(i, cur, niT, t, penalty, alpha, expected))
	}
	if e, ok := sc.minIdx.bestUntouched(sc.pstamp, sc.epoch); ok {
		considerCandidate(&bestVal, &bestPart, e.idx, cur, k.value(e.idx, cur, niU, tU, penalty, alpha, expected))
	}
	curTouched := sc.pstamp[cur] == sc.epoch
	if !curTouched {
		considerCandidate(&bestVal, &bestPart, cur, cur, k.value(cur, cur, niU, tU, penalty, alpha, expected))
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
// within-block noise, where a scalar min(C)·ΣX bound would slack by the
// full tier spread. For an exact block the floor sum IS every member's
// communication term, so its lowest-(load, index) available member, which
// dominates its siblings under the exhaustive tie-break, settles the whole
// block in O(1) after the shared floor pass. A surviving noisy block is
// settled in one pass over its members: its cached argmin first when
// available, then every other available member whose own bound (floor
// comm, its own load) can still beat the incumbent.
//
// work approximates the scan's cost in units of one exhaustive candidate
// evaluation — a block refresh or one pass over a block's members counts
// one — so the stream can fall back when the walk stops pruning.
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
	score := func(i int32, ni, t float64) {
		sc.sstamp[i] = epoch
		considerCandidate(&bestVal, &bestPart, i, cur, k.value(i, cur, ni, t, penalty, alpha, expected))
	}
	if len(sc.touched) > 0 {
		score(jstar, niT, k.comm(jstar))
	}
	switch {
	case sc.pstamp[cur] != epoch:
		score(cur, niU, k.comm(cur))
	case cur != jstar:
		score(cur, niT, k.comm(cur))
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
			score(i, niU, k.comm(i))
		} else if i, _, ok := k.minAvailableInBlock(champ, expected); ok {
			work++
			score(i, niU, k.comm(i))
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
		score(i, niT, k.comm(i))
	}

	for _, b := range ci.blockOrder[jstar] {
		tLB := tLBAll[b]
		// O(1) block rejection: blockMinQ[b] is the exact minimum
		// normalised load over the block's members (a lower bound for
		// the unscored ones), so if even (floor comm, min load) cannot
		// beat the incumbent, nothing in the block can.
		if loadPrunable(niU, tLB, alpha, sc.blockMinQ[b], penalty, bestVal) {
			k.tally.BlockRejections++
			continue
		}
		if ci.blocks[b].exact {
			// Every member shares T_i = tLB, so the lowest-(load, index)
			// available member dominates its siblings: the cached argmin
			// when still available, else one member scan finds it.
			i, q, ok := sc.blockMinIdx[b], sc.blockMinQ[b], true
			if sc.pstamp[i] == epoch || sc.sstamp[i] == epoch {
				i, q, ok = k.minAvailableInBlock(b, expected)
				work++
			}
			if ok && !loadPrunable(niU, tLB, alpha, q, penalty, bestVal) {
				score(i, niU, tLB)
				k.tally.ExactSettles++
			}
			continue
		}
		// A noisy block in one pass. Its cached argmin carries the block's
		// least load, so when available it goes first (its bound is the
		// block's, which just passed) and hands the rest the strongest
		// incumbent the block offers. considerCandidate makes their order
		// irrelevant, and a member skipped by its bound is strictly worse
		// than an incumbent that only improves.
		if i := sc.blockMinIdx[b]; sc.pstamp[i] != epoch && sc.sstamp[i] != epoch {
			score(i, niU, k.comm(i))
		}
		work++
		for _, i := range ci.blocks[b].members {
			if sc.pstamp[i] == epoch || sc.sstamp[i] == epoch ||
				loadPrunable(niU, tLB, alpha, float64(k.loads[i])/expected[i], penalty, bestVal) {
				continue
			}
			score(i, niU, k.comm(i))
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
