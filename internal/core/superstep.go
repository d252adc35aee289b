package core

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync/atomic"

	"hyperpraw/internal/hypergraph"
)

// loadSyncEvery is the worker's load-view refresh cadence: after this many
// visited vertices a worker flushes its batched load deltas to the shared
// per-partition counters and re-reads them all into its local view. Between
// refreshes every candidate score is a plain read of the view — the worker
// sees its own moves immediately and its peers' moves with at most this much
// lag, which is the GraSP staleness relaxation made explicit. 512 keeps the
// lag well under one percent of any benchmark-sized stream while amortising
// the O(p) flush+refresh to a fraction of a visit's scoring work. A lone
// worker has no peers, so its view is exact and it never refreshes mid-pass.
const loadSyncEvery = 512

// paddedLoad is one shared per-partition load counter on its own cache line.
// A plain []atomic.Int64 packs 8 counters per 64-byte line, so two workers
// moving vertices into unrelated partitions still ping-pong the line between
// cores on every flush; the padding makes cross-worker traffic proportional
// to true sharing only.
type paddedLoad struct {
	v atomic.Int64
	_ [56]byte
}

// phase selects what one dispatched superstep command runs.
type phase uint8

const (
	// phaseStream: greedily reassign the worker's share of the vertices.
	phaseStream phase = iota
	// phaseCollect: copy the worker's vertex range of the live assignment
	// into the pass snapshot, census it per cost-tier block, and with
	// several workers recount the worker's row range of the pair matrix.
	phaseCollect
)

// passCmd is one phase command. Worker 0 runs it on the driver's
// goroutine; the others receive it through their buffered channels, and the
// shared WaitGroup is the phase barrier.
type passCmd struct {
	phase    phase
	pass     int32
	alpha    float64
	frontier bool
}

// PartitionParallel is the parallel restreaming variant the paper's §8.2
// identifies as future work, following Battaglino et al. (GraSP): the
// Partitioner of New and Run with a pool of workers that stream disjoint
// vertex sets concurrently against a shared assignment. Decisions read
// slightly stale peer state — exactly the relaxation GraSP shows costs
// little quality — so multi-worker results are valid but not bit-for-bit
// deterministic across runs. With one worker it is New and Run.
//
// Worker ownership is architecture-aligned: when the cost-tier index
// classifies the matrix as blocked (hierarchical machine), each worker owns
// a set of cost-tier blocks and streams the vertices whose start-of-pass
// partition lies in its blocks, rebalanced every superstep from the
// per-block vertex census — so a worker's candidate scan, block argmin
// caches, and most of its moves stay block-local. Uniform or unstructured
// matrices fall back to a round-robin stride over the visiting order.
// Shared load counters are cache-line padded and written only through
// per-worker deltas flushed every loadSyncEvery visits. Each worker runs
// the kernel's pickers against its epoch-refreshed load view, so
// per-candidate load reads are plain reads. The per-pass snapshot and the
// recount of the neighbour-pair counts behind PC(P) run as parallel
// reductions over vertex and row ranges at every barrier.
//
// Every Config option applies as in Run, InitialParts, MigrationPenalty
// and ShuffledOrder included. workers <= 0 selects GOMAXPROCS.
func PartitionParallel(h *hypergraph.Hypergraph, cfg Config, workers int) (Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if nv := h.NumVertices(); workers > nv && nv > 0 {
		workers = nv
	}
	pr, err := newPartitioner(h, cfg, workers)
	if err != nil {
		return Result{}, err
	}
	defer pr.Release()
	return pr.Run(), nil
}

// newPartitioner validates cfg and builds a Partitioner with a pool of
// workers (at least one). Worker 0's scratch holds the run state; every
// other worker gets its own goroutine, which lives until Release.
func newPartitioner(h *hypergraph.Hypergraph, cfg Config, workers int) (*Partitioner, error) {
	cfg, cidx, err := prepare(h, cfg)
	if err != nil {
		return nil, err
	}
	nv, p := h.NumVertices(), len(cfg.CostMatrix)
	pr := &Partitioner{h: h, cfg: cfg, cidx: cidx, p: p}
	nb := len(cidx.blocks)
	// Block-aligned ownership needs at least one block per worker; below
	// that (or on uniform/unstructured matrices) the round-robin stride
	// keeps every worker busy. A lone worker owns everything either way.
	pr.blockAligned = workers > 1 && cidx.kind == costBlocked && nb >= workers
	if pr.blockAligned {
		pr.blockOwner = make([]int32, nb)
		pr.blockVerts = make([]int64, nb)
		pr.blockRank = make([]int32, nb)
		pr.ownerBudget = make([]int64, workers)
	}

	vchunk := (nv + workers - 1) / workers
	pchunk := (p + workers - 1) / workers
	pr.pool = make([]*worker, workers)
	for id := range pr.pool {
		w := &worker{pr: pr, id: id}
		w.setup(h, &pr.cfg, cidx, acquireScratch(nv, p))
		w.lo, w.hi = clampRange(id*vchunk, vchunk, nv)
		w.rowLo, w.rowHi = clampRange(id*pchunk, pchunk, p)
		// The delta buffer must be re-zeroed: a pooled scratch may carry
		// another run's residue.
		w.sc.delta = grow(w.sc.delta, p)
		clear(w.sc.delta)
		if pr.blockAligned {
			w.sc.blockVerts = grow(w.sc.blockVerts, nb)
		}
		pr.pool[id] = w
	}

	sc := pr.pool[0].sc
	pr.sc = sc
	sc.assign = grow(sc.assign, nv)
	sc.snapshot = grow(sc.snapshot, nv)
	sc.shared = grow(sc.shared, p)
	sc.expected = grow(sc.expected, p)
	if cfg.ShuffledOrder {
		sc.order = grow(sc.order, nv)
	}
	if cfg.FrontierRestreaming {
		sc.dirty = grow(sc.dirty, nv)
	}
	sc.pairs.size(p)

	for _, w := range pr.pool[1:] {
		w.cmds = make(chan passCmd, 1)
		pr.exit.Add(1)
		go func(w *worker) {
			defer pr.exit.Done()
			// The label makes `go tool pprof` attribute kernel time per
			// worker.
			pprof.Do(context.Background(), pprof.Labels("hyperpraw_worker", strconv.Itoa(w.id)),
				func(context.Context) { w.serve() })
		}(w)
	}
	return pr, nil
}

func clampRange(lo, chunk, n int) (int, int) {
	if lo > n {
		lo = n
	}
	hi := lo + chunk
	if hi > n {
		hi = n
	}
	return lo, hi
}

// dispatch runs one phase on every worker — worker 0 on the calling
// goroutine — and returns once all have finished.
func (pr *Partitioner) dispatch(cmd passCmd) {
	rest := pr.pool[1:]
	pr.wg.Add(len(rest))
	for _, w := range rest {
		w.cmds <- cmd
	}
	pr.pool[0].do(cmd)
	pr.wg.Wait()
}

// rebalanceBlocks reassigns cost-tier blocks to workers from the merged
// vertex census: blocks sorted by descending vertex count (ties to the
// lower id) are handed greedily to the least-budgeted worker (ties to the
// lower id) — the classic LPT heuristic, deterministic and within 4/3 of
// the optimal makespan. Runs between barriers, so workers never observe a
// partial assignment.
func (pr *Partitioner) rebalanceBlocks() {
	census := pr.blockVerts
	rank := pr.blockRank
	for b := range rank {
		rank[b] = int32(b)
	}
	// Insertion sort: nb is at most p/8 and the census changes little
	// between supersteps, so the nearly-sorted case is O(nb) — and unlike
	// sort.Slice it never allocates, keeping supersteps at 0 allocs/op.
	for i := 1; i < len(rank); i++ {
		x := rank[i]
		j := i - 1
		for j >= 0 && (census[rank[j]] < census[x] ||
			(census[rank[j]] == census[x] && rank[j] > x)) {
			rank[j+1] = rank[j]
			j--
		}
		rank[j+1] = x
	}
	clear(pr.ownerBudget)
	for _, b := range rank {
		best := 0
		for w := 1; w < len(pr.ownerBudget); w++ {
			if pr.ownerBudget[w] < pr.ownerBudget[best] {
				best = w
			}
		}
		pr.blockOwner[b] = int32(best)
		pr.ownerBudget[best] += census[b]
	}
}

// superstep runs one full pass — shuffle the visiting order when asked,
// stream, barrier reductions, ownership rebalance — and returns the pass's
// move count, imbalance, and PC(P). It allocates nothing.
func (pr *Partitioner) superstep(pass int, alpha float64, frontier bool) (moves int, imb, cost float64) {
	sc := pr.sc
	if pr.cfg.ShuffledOrder {
		pr.rng.shuffle(sc.order)
	}
	pr.dispatch(passCmd{phase: phaseStream, pass: int32(pass), alpha: alpha, frontier: frontier})
	for _, w := range pr.pool {
		moves += w.passMoves
	}
	// Every worker flushed its deltas before the barrier, so the shared
	// counters hold the exact end-of-pass loads. Worker 0's view, refreshed
	// from them here (its next stream refreshes it again), is the copy the
	// imbalance is measured on.
	w0 := pr.pool[0]
	w0.refreshView()
	imb = imbalanceFor(pr.cfg.Capacities, w0.loads, sc.expected)

	pr.dispatch(passCmd{phase: phaseCollect})
	if pr.blockAligned {
		clear(pr.blockVerts)
		for _, w := range pr.pool {
			for b, c := range w.sc.blockVerts {
				pr.blockVerts[b] += c
			}
		}
		pr.rebalanceBlocks()
	}
	// The integer matrix of a partition is unique and its cost's order is
	// fixed, so the value does not depend on the worker count.
	return moves, imb, sc.pairs.cost(pr.cfg.CostMatrix)
}

// worker is one worker of a Partitioner's pool: the streaming kernel
// (pooled scratch, pickers, scan caches) run against a private load view
// with batched deltas, plus its share of the barrier reductions. The
// kernel's loads are the view: refreshed from the shared padded counters
// at stream start and, with several workers, every loadSyncEvery visits,
// and updated in place by the worker's own moves. Candidate scoring reads
// it with plain loads — no atomics on the scoring path.
type worker struct {
	kernel
	pr   *Partitioner
	id   int
	cmds chan passCmd // nil for worker 0, which runs on the driver's goroutine

	// lo/hi is the worker's vertex range for the collect reduction, and
	// rowLo/rowHi its row range of the pair matrix for the recount; stream
	// ownership is by block or stride, not range.
	lo, hi       int
	rowLo, rowHi int

	// passMoves is the pass's move count, summed at the barrier.
	passMoves int
}

// serve runs the phases dispatched to a worker with its own goroutine.
func (w *worker) serve() {
	for cmd := range w.cmds {
		w.do(cmd)
		w.pr.wg.Done()
	}
}

// do runs one dispatched phase.
func (w *worker) do(cmd passCmd) {
	switch cmd.phase {
	case phaseStream:
		w.stream(int(cmd.pass), cmd.alpha, cmd.frontier)
	case phaseCollect:
		w.collect()
	}
}

// collect copies the worker's vertex range of the live assignment into the
// pass snapshot and counts its vertices per cost-tier block. With several
// workers, whose moves race, it also recounts the worker's row range of the
// run's pair matrix from the live assignment, which no one writes until the
// next stream; a lone worker builds the matrix in its first pass and keeps
// it current move by move.
func (w *worker) collect() {
	pr := w.pr
	assign, snap := pr.sc.assign, pr.sc.snapshot
	for v := w.lo; v < w.hi; v++ {
		snap[v] = assign[v].Load()
	}
	if pr.blockAligned {
		census := w.sc.blockVerts
		clear(census)
		blockOf := pr.cidx.blockOf
		for v := w.lo; v < w.hi; v++ {
			census[blockOf[snap[v]]]++
		}
	}
	if len(pr.pool) > 1 {
		w.sc.countPairs(pr.h, assign, pr.cfg.UseEdgeWeights, &pr.sc.pairs, w.rowLo, w.rowHi)
	}
}

// flushDeltas applies the worker's batched load changes to the shared
// padded counters and clears them.
func (w *worker) flushDeltas() {
	shared, delta := w.pr.sc.shared, w.sc.delta
	for i, d := range delta {
		if d != 0 {
			shared[i].v.Add(d)
			delta[i] = 0
		}
	}
}

// refreshView re-reads every shared counter into the worker's local view.
func (w *worker) refreshView() {
	shared := w.pr.sc.shared
	for i := range w.loads {
		w.loads[i] = shared[i].v.Load()
	}
}

// stream greedily reassigns the worker's share of the vertices for one
// pass, walking the visiting order (the shuffled order, or the natural
// one). The share is every vertex for a lone worker; with several it is
// the vertices whose start-of-pass partition lies in the worker's blocks
// under block-aligned ownership, or every workers-th position of the order
// otherwise — either way every vertex has exactly one owner per pass. pass
// is the 1-based iteration number; when frontierOnly is set, only vertices
// whose dirty stamp is at least this pass (they or a neighbour moved last
// pass) are visited.
func (w *worker) stream(pass int, alpha float64, frontierOnly bool) {
	pr, sc := w.pr, w.sc
	h, run := pr.h, pr.sc
	assign, expected := run.assign, run.expected
	me := int32(w.id)
	multi := len(pr.pool) > 1
	weighted := pr.cfg.UseEdgeWeights
	migration := pr.cfg.MigrationPenalty
	var order []int32
	if pr.cfg.ShuffledOrder {
		order = run.order
	}

	// The scan caches are seeded from the view just refreshed; a peer's
	// later moves leave them slightly stale until the next sync point,
	// consistent with the GraSP relaxation.
	w.refreshView()
	w.beginStream(alpha, expected)
	mark := pr.cfg.FrontierRestreaming
	next := int32(pass) + 1
	var owner, blockOf, snap []int32
	if pr.blockAligned {
		owner, blockOf, snap = pr.blockOwner, pr.cidx.blockOf, run.snapshot
	}
	first, stride := 0, 1
	if multi && !pr.blockAligned {
		first, stride = w.id, len(pr.pool)
	}
	// A lone worker's first pass builds the pair matrix as it goes (see
	// movePairs). It marks the vertices it has placed in the snapshot,
	// which it does not otherwise read while streaming and which collect
	// rewrites next.
	build := !multi && pass == 1
	if build {
		run.pairs.clearRows(0, pr.p)
		sc.placed = run.snapshot
	}
	syncCountdown := loadSyncEvery
	moves := 0
	var visited int64

	for idx := first; idx < len(assign); idx += stride {
		v := idx
		if order != nil {
			v = int(order[idx])
		}
		if owner != nil && owner[blockOf[snap[v]]] != me {
			continue
		}
		// Visit when due this pass OR already marked for the next one (a
		// neighbour that moved earlier in this very pass must not cancel a
		// pending visit by overwriting the stamp with pass+1).
		if frontierOnly {
			if atomic.LoadInt32(&run.dirty[v]) < int32(pass) {
				continue
			}
			visited++
		}
		if multi {
			syncCountdown--
			if syncCountdown == 0 {
				syncCountdown = loadSyncEvery
				w.flushDeltas()
				w.refreshView()
				// The refreshed view invalidates every cached minimum
				// keyed on the old one.
				w.reseed(expected)
			}
		}
		sc.gather(h, assign, v, weighted)
		cur := assign[v].Load()
		wt := h.VertexWeight(v)
		penalty := 0.0
		if migration > 0 {
			penalty = migration * float64(wt)
		}
		best := w.pick(cur, penalty, alpha, expected)
		if best != cur {
			moves++
			sc.delta[cur] -= wt
			sc.delta[best] += wt
			assign[v].Store(best)
			if !multi && !build {
				sc.movePairs(cur, best, sc.xCounts)
			}
			w.noteMove(cur, best, wt, expected)
			if mark {
				w.markDirty(v, next)
			}
		}
		if build {
			sc.movePairs(-1, best, sc.xPlaced)
			sc.placed[v] = -1
		}
	}
	sc.placed = nil
	w.flushDeltas()
	w.passMoves = moves
	w.tally.Moves += int64(moves)
	w.tally.FrontierVisited += visited
}

// markDirty stamps v and every neighbour of v as frontier members for pass
// `next`: a vertex must be re-streamed iff it or a neighbour moved. The
// stamp is checked before the store: vertices on hot hyperedges are marked
// once per moving neighbour, and skipping the redundant stores keeps their
// cache lines clean — with several workers, instead of turning every mark
// into cross-core invalidation traffic.
func (w *worker) markDirty(v int, next int32) {
	h, dirty := w.pr.h, w.pr.sc.dirty
	if atomic.LoadInt32(&dirty[v]) != next {
		atomic.StoreInt32(&dirty[v], next)
	}
	for _, e := range h.IncidentEdges(v) {
		for _, u := range h.Pins(int(e)) {
			if atomic.LoadInt32(&dirty[u]) != next {
				atomic.StoreInt32(&dirty[u], next)
			}
		}
	}
}
