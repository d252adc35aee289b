package core

import (
	"context"
	"errors"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"hyperpraw/internal/hypergraph"
)

// ErrParallelMigration is returned by PartitionParallel when
// Config.MigrationPenalty is set: parallel workers score candidates with a
// zero migration penalty, and silently ignoring the configured one would
// return partitions the caller believes migration-aware. Repartitioning
// with a migration cost goes through the serial Run path.
var ErrParallelMigration = errors.New("core: MigrationPenalty is not supported by PartitionParallel; use the serial Run path")

// loadSyncEvery is the worker's load-view refresh cadence: after this many
// visited vertices a worker flushes its batched load deltas to the shared
// per-partition counters and re-reads them all into its local view. Between
// refreshes every candidate score is a plain read of the view — the worker
// sees its own moves immediately and its peers' moves with at most this much
// lag, which is the GraSP staleness relaxation made explicit. 512 keeps the
// lag well under one percent of any benchmark-sized stream while amortising
// the O(p) flush+refresh to a fraction of a visit's scoring work.
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

// parallelPhase selects what one dispatched superstep command runs.
type parallelPhase uint8

const (
	// phaseStream: greedily reassign the worker's owned vertices.
	phaseStream parallelPhase = iota
	// phaseCollect: copy the worker's vertex range of the shared assignment
	// into the pass snapshot and census vertices per cost-tier block.
	phaseCollect
	// phaseScan: recount the worker's row range of the run's neighbour-pair
	// matrix from the pass snapshot (see scratch.countPairs).
	phaseScan
)

// passCmd is one phase command, delivered to every worker through its
// buffered channel; the shared WaitGroup is the phase barrier.
type passCmd struct {
	phase    parallelPhase
	pass     int32
	alpha    float64
	frontier bool
}

// PartitionParallel is the parallel restreaming variant the paper's §8.2
// identifies as future work, following Battaglino et al. (GraSP): workers
// stream disjoint vertex sets concurrently against a shared assignment.
// Decisions read slightly stale peer state — exactly the relaxation GraSP
// shows costs little quality — so multi-worker results are valid but not
// bit-for-bit deterministic across runs. With a single worker the schedule,
// arithmetic, and driver loop are identical to Run, move for move.
//
// Worker ownership is architecture-aligned: when the cost-tier index
// classifies the matrix as blocked (hierarchical machine), each worker owns
// a set of cost-tier blocks and streams the vertices whose start-of-pass
// partition lies in its blocks, rebalanced every superstep from the
// per-block vertex census — so a worker's candidate scan, block argmin
// caches, and most of its moves stay block-local. Uniform or unstructured
// matrices fall back to a round-robin vertex stride. Shared load counters
// are cache-line padded and written only through per-worker deltas flushed
// every loadSyncEvery visits. Each worker runs the serial kernel's pickers
// against its epoch-refreshed load view, so per-candidate load reads are
// plain reads, and the driver loop is Run's own. The per-pass snapshot and
// load scans run as parallel reductions across the workers, merged at the
// barrier in worker order. PC(P) comes from the same neighbour-pair counts
// as Run: a single worker maintains them move by move exactly as the
// serial stream does, while with several workers, whose moves race, every
// barrier recounts them as per-worker partials over vertex ranges.
//
// Config.InitialParts seeds the assignment exactly as in Run. ShuffledOrder
// is ignored (workers stream their owned vertices in natural order).
// Config.MigrationPenalty is rejected with ErrParallelMigration.
//
// workers <= 0 selects GOMAXPROCS. The configuration semantics match Run.
func PartitionParallel(h *hypergraph.Hypergraph, cfg Config, workers int) (Result, error) {
	cfg, cidx, err := prepare(h, cfg)
	if err != nil {
		return Result{}, err
	}
	if cfg.MigrationPenalty > 0 {
		return Result{}, ErrParallelMigration
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nv := h.NumVertices()
	if workers > nv && nv > 0 {
		workers = nv
	}
	if workers < 1 {
		workers = 1
	}
	run := newParallelRun(h, cfg, cidx, workers)
	defer run.close()
	return run.run(), nil
}

// parallelState is the shared state of one parallel restreaming run.
type parallelState struct {
	h       *hypergraph.Hypergraph
	cfg     Config
	p       int
	nv      int
	workers int
	parts   []atomic.Int32
	loads   []paddedLoad
	// dirty holds the frontier stamps (accessed with atomic loads/stores so
	// concurrent same-pass marking is race-free); nil unless
	// FrontierRestreaming is on.
	dirty []int32

	// cidx is the shared (immutable) cost-tier index; per-worker scan
	// state — block argmin caches, scored stamps — lives in each worker
	// scratch.
	cidx     *CostIndex
	expected []float64

	// snapshot is the start-of-pass assignment: collect fills it at every
	// barrier, stream reads it for block ownership (so each vertex is
	// processed exactly once per pass no matter where it moves), and the
	// scan phase reduces over it.
	snapshot []int32

	// pairs is the run's one neighbour-pair matrix (the first worker's
	// scratch.pairs): the lone worker of a w=1 run maintains it move by
	// move; with several workers each recounts its own row range of it at
	// every barrier, so the run holds one matrix however many workers it has.
	pairs *pairCounts

	// Block-aligned ownership (blockAligned == true): blockOwner maps each
	// cost-tier block to the worker that streams its vertices this pass,
	// reassigned every superstep by rebalanceBlocks from the census.
	// Workers only read it during phaseStream; the driver only writes it
	// between barriers.
	blockAligned bool
	blockOwner   []int32
}

// parallelRun is the driver side of one run: the persistent worker pool,
// the phase barrier, and the merge buffers of the barrier reductions.
type parallelRun struct {
	s    *parallelState
	pool []*parallelWorker
	wg   sync.WaitGroup // phase barrier
	exit sync.WaitGroup // worker goroutine lifetimes

	loadsBuf    []int64 // exact barrier loads, for the imbalance check
	blockVerts  []int64 // merged per-block vertex census
	blockRank   []int32 // census-sorted block ids (rebalance scratch)
	ownerBudget []int64 // per-worker vertex budget (rebalance scratch)
}

func newParallelRun(h *hypergraph.Hypergraph, cfg Config, cidx *CostIndex, workers int) *parallelRun {
	nv := h.NumVertices()
	p := len(cfg.CostMatrix)
	s := &parallelState{
		h: h, cfg: cfg, p: p, nv: nv, workers: workers,
		parts:    make([]atomic.Int32, nv),
		loads:    make([]paddedLoad, p),
		cidx:     cidx,
		snapshot: make([]int32, nv),
	}
	if cfg.FrontierRestreaming {
		s.dirty = make([]int32, nv)
	}
	var totalW int64
	for v := 0; v < nv; v++ {
		part := int32(v % p)
		if cfg.InitialParts != nil {
			part = cfg.InitialParts[v]
		}
		s.parts[v].Store(part)
		s.snapshot[v] = part
		w := h.VertexWeight(v)
		s.loads[part].v.Add(w)
		totalW += w
	}
	s.expected = expectedLoadsFor(make([]float64, p), cfg.Capacities, totalW)

	nb := len(cidx.blocks)
	// Block-aligned ownership needs at least one block per worker; below
	// that (or on uniform/unstructured matrices) the round-robin stride
	// keeps every worker busy.
	s.blockAligned = cidx.kind == costBlocked && nb >= workers
	r := &parallelRun{s: s, loadsBuf: make([]int64, p)}
	if s.blockAligned {
		s.blockOwner = make([]int32, nb)
		r.blockVerts = make([]int64, nb)
		r.blockRank = make([]int32, nb)
		r.ownerBudget = make([]int64, workers)
	}

	scanKind := "exhaustive"
	if fastScanEligible(cfg, cidx, p) {
		switch cidx.kind {
		case costUniform:
			scanKind = "uniform"
		case costBlocked:
			scanKind = "blocked"
		default:
			scanKind = "bounded"
		}
	}
	ownership := "round-robin"
	if s.blockAligned {
		ownership = "block-aligned"
	}

	vchunk := (nv + workers - 1) / workers
	pchunk := (p + workers - 1) / workers
	r.pool = make([]*parallelWorker, workers)
	for id := 0; id < workers; id++ {
		w := &parallelWorker{run: r, s: s, id: id, cmds: make(chan passCmd, 1)}
		// The kernel's loads, the scratch's serial load buffer, serve as
		// the worker's load view (parallel workers share assignment state,
		// so the buffer is otherwise idle).
		w.setup(h, &s.cfg, cidx, acquireScratch(nv, p))
		r.pool[id] = w
		w.lo, w.hi = clampRange(id*vchunk, vchunk, nv)
		w.rowLo, w.rowHi = clampRange(id*pchunk, pchunk, p)
		// The delta buffer must be re-zeroed: a pooled scratch may carry
		// another run's residue.
		w.sc.delta = growI64(w.sc.delta, p)
		w.delta = w.sc.delta
		for i := range w.delta {
			w.delta[i] = 0
		}
		if s.blockAligned {
			w.sc.blockVerts = growI64(w.sc.blockVerts, nb)
			w.blockVerts = w.sc.blockVerts
		}
		r.exit.Add(1)
		go func(w *parallelWorker, id int) {
			defer r.exit.Done()
			// Labels make `go tool pprof` attribute kernel time per worker
			// and per pick path without symbol spelunking.
			pprof.Do(context.Background(), pprof.Labels(
				"hyperpraw_worker", strconv.Itoa(id),
				"hyperpraw_scan", scanKind,
				"hyperpraw_ownership", ownership,
			), func(context.Context) { w.main() })
		}(w, id)
	}
	s.pairs = &r.pool[0].sc.pairs
	s.pairs.size(p)
	if s.blockAligned {
		// Seed ownership from the initial assignment so the first stream
		// is already block-aligned.
		r.censusSnapshot()
		r.rebalanceBlocks()
	}
	if workers == 1 {
		// The lone worker's pair counts start from the initial assignment
		// and are maintained by its stream from then on.
		r.dispatch(passCmd{phase: phaseScan})
	}
	return r
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

// close shuts the worker pool down and returns the pooled scratches.
func (r *parallelRun) close() {
	for _, w := range r.pool {
		close(w.cmds)
	}
	r.exit.Wait()
	for _, w := range r.pool {
		releaseScratch(w.sc)
		w.sc = nil
	}
}

// dispatch runs one phase on every worker and blocks until all complete.
func (r *parallelRun) dispatch(cmd passCmd) {
	r.wg.Add(len(r.pool))
	for _, w := range r.pool {
		w.cmds <- cmd
	}
	r.wg.Wait()
}

// censusSnapshot recounts the per-block vertex census from the snapshot
// serially; used only once at run start (per-pass censuses are taken by the
// workers during phaseCollect).
func (r *parallelRun) censusSnapshot() {
	s := r.s
	for b := range r.blockVerts {
		r.blockVerts[b] = 0
	}
	for _, part := range s.snapshot {
		r.blockVerts[s.cidx.blockOf[part]]++
	}
}

// rebalanceBlocks reassigns cost-tier blocks to workers from the merged
// vertex census: blocks sorted by descending vertex count (ties to the
// lower id) are handed greedily to the least-budgeted worker (ties to the
// lower id) — the classic LPT heuristic, deterministic and within 4/3 of
// the optimal makespan. Runs between barriers, so workers never observe a
// partial assignment.
func (r *parallelRun) rebalanceBlocks() {
	s := r.s
	census := r.blockVerts
	rank := r.blockRank
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
	for w := range r.ownerBudget {
		r.ownerBudget[w] = 0
	}
	for _, b := range rank {
		best := 0
		for w := 1; w < len(r.ownerBudget); w++ {
			if r.ownerBudget[w] < r.ownerBudget[best] {
				best = w
			}
		}
		s.blockOwner[b] = int32(best)
		r.ownerBudget[best] += census[b]
	}
}

// superstep runs one full pass — stream, barrier reductions, ownership
// rebalance — and returns the pass's move count, imbalance, and monitored
// comm cost. It allocates nothing.
func (r *parallelRun) superstep(pass int, alpha float64, frontier bool) (moves int, imb, cost float64) {
	s := r.s
	r.dispatch(passCmd{phase: phaseStream, pass: int32(pass), alpha: alpha, frontier: frontier})
	for _, w := range r.pool {
		moves += w.passMoves
	}
	// Every worker flushed its deltas before reaching the barrier, so the
	// shared counters hold the exact end-of-pass loads.
	for i := range r.loadsBuf {
		r.loadsBuf[i] = s.loads[i].v.Load()
	}
	imb = imbalanceFor(s.cfg.Capacities, r.loadsBuf, s.expected)

	// Snapshot copy + block census as a parallel reduction over vertex
	// ranges (the serial O(n) barrier section of the old kernel).
	r.dispatch(passCmd{phase: phaseCollect})
	if s.blockAligned {
		for b := range r.blockVerts {
			r.blockVerts[b] = 0
		}
		for _, w := range r.pool {
			for b, c := range w.blockVerts {
				r.blockVerts[b] += c
			}
		}
		r.rebalanceBlocks()
	}

	return moves, imb, r.commCost()
}

// commCost returns PC(P) of the current snapshot from the pair counts. A
// single worker's counts are current already; with several workers each
// recounts its row range of the matrix. The integer matrix of a partition
// is unique and its cost's order is fixed, so the value is the serial one
// bit for bit.
func (r *parallelRun) commCost() float64 {
	if len(r.pool) > 1 {
		r.dispatch(passCmd{phase: phaseScan})
	}
	return r.s.pairs.cost(r.s.cfg.CostMatrix)
}

// run executes the shared driver loop (restream) over the pool.
func (r *parallelRun) run() Result { return restream(r.s.h, &r.s.cfg, r) }

// assignment is the start-of-pass snapshot, which the collect phase
// refreshes at every barrier.
func (r *parallelRun) assignment() []int32 { return r.s.snapshot }

// bestBuffer borrows the first worker's pooled best-partition buffer.
func (r *parallelRun) bestBuffer() []int32 { return r.pool[0].bestBuffer() }

// takeTally merges and clears every worker's counters. Workers are
// quiescent between dispatches, so this is race-free.
func (r *parallelRun) takeTally() StreamStats {
	var t StreamStats
	for _, w := range r.pool {
		t.Add(w.takeTally())
	}
	return t
}

// parallelWorker is one worker of the pool: the serial streaming kernel
// (pooled scratch, pickers, scan caches) run against a private load view
// with batched deltas, and the barrier-phase outputs the driver merges.
// The kernel's loads are the view: refreshed from the shared padded
// counters at stream start and every loadSyncEvery visits, updated in
// place by the worker's own moves. Candidate scoring reads it with plain
// loads — no atomics on the scoring path.
type parallelWorker struct {
	kernel
	run  *parallelRun
	s    *parallelState
	id   int
	cmds chan passCmd

	// delta accumulates the worker's unflushed load changes against the
	// shared counters; flushDeltas applies and clears it.
	delta []int64

	// blockVerts is this worker's share of the per-block vertex census,
	// filled during phaseCollect (blockAligned runs only).
	blockVerts []int64

	// lo/hi is the worker's vertex range for the collect reduction, and
	// rowLo/rowHi its row range of the pair matrix for the scan; stream
	// ownership is by block or stride, not range.
	lo, hi       int
	rowLo, rowHi int

	// passMoves is the pass's move count, summed at the barrier.
	passMoves int
}

func (w *parallelWorker) main() {
	for cmd := range w.cmds {
		switch cmd.phase {
		case phaseStream:
			w.streamPass(int(cmd.pass), cmd.alpha, cmd.frontier)
		case phaseCollect:
			w.collect()
		case phaseScan:
			w.scan()
		}
		w.run.wg.Done()
	}
}

// collect copies the worker's vertex range of the shared assignment into
// the pass snapshot and counts its vertices per cost-tier block.
func (w *parallelWorker) collect() {
	s := w.s
	snap := s.snapshot
	for v := w.lo; v < w.hi; v++ {
		snap[v] = s.parts[v].Load()
	}
	if s.blockAligned {
		for b := range w.blockVerts {
			w.blockVerts[b] = 0
		}
		blockOf := s.cidx.blockOf
		for v := w.lo; v < w.hi; v++ {
			w.blockVerts[blockOf[snap[v]]]++
		}
	}
}

// scan recounts the worker's row range of the run's pair matrix from the
// pass snapshot.
func (w *parallelWorker) scan() {
	s := w.s
	w.sc.countPairs(s.h, s.snapshot, s.cfg.UseEdgeWeights, s.pairs, w.rowLo, w.rowHi)
}

// flushDeltas applies the worker's batched load changes to the shared
// padded counters and clears them.
func (w *parallelWorker) flushDeltas() {
	loads := w.s.loads
	for i, d := range w.delta {
		if d != 0 {
			loads[i].v.Add(d)
			w.delta[i] = 0
		}
	}
}

// refreshView re-reads every shared counter into the worker's local view.
func (w *parallelWorker) refreshView() {
	loads := w.s.loads
	for i := range w.loads {
		w.loads[i] = loads[i].v.Load()
	}
}

// streamPass greedily reassigns the worker's owned vertices for one pass.
// Ownership is block-aligned (vertices whose start-of-pass partition lies
// in the worker's cost-tier blocks) or a round-robin stride; either way
// every vertex has exactly one owner per pass. With a single worker the
// visit order is the natural order, the view is exact at every visit, and
// every pick is move-for-move identical to the serial stream.
func (w *parallelWorker) streamPass(pass int, alpha float64, frontierOnly bool) {
	s, sc := w.s, w.sc
	h := s.h
	me := int32(w.id)
	multi := s.workers > 1
	expected := s.expected

	// The scan caches are seeded from the view just refreshed; a peer's
	// later moves leave them slightly stale until the next sync point,
	// consistent with the GraSP relaxation.
	w.refreshView()
	w.beginStream(alpha, expected)
	mark := s.cfg.FrontierRestreaming
	next := int32(pass) + 1
	blockAligned := s.blockAligned && multi
	var owner []int32
	var blockOf []int32
	var snap []int32
	if blockAligned {
		owner, blockOf, snap = s.blockOwner, s.cidx.blockOf, s.snapshot
	}
	syncCountdown := loadSyncEvery
	moves := 0
	var visited int64

	v0, stride := 0, 1
	if !blockAligned && multi {
		v0, stride = w.id, s.workers
	}
	for v := v0; v < s.nv; v += stride {
		if blockAligned && owner[blockOf[snap[v]]] != me {
			continue
		}
		// See the serial stream: >= pass so a same-pass overwrite to pass+1
		// cannot cancel a pending visit.
		if frontierOnly {
			if atomic.LoadInt32(&s.dirty[v]) < int32(pass) {
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
		w.gather(v)
		cur := s.parts[v].Load()

		if best := w.pick(cur, 0, alpha, expected); best != cur {
			moves++
			wt := h.VertexWeight(v)
			w.delta[cur] -= wt
			w.delta[best] += wt
			s.parts[v].Store(best)
			if !multi {
				sc.movePairs(cur, best)
			}
			w.noteMove(cur, best, wt, expected)
			if mark {
				w.markDirty(v, next)
			}
		}
	}
	w.flushDeltas()
	w.passMoves = moves
	w.tally.Moves += int64(moves)
	w.tally.FrontierVisited += visited
}

// gather fills the worker scratch with X_j(v) against the live shared
// assignment (the atomic-load twin of scratch.gather).
func (w *parallelWorker) gather(v int) {
	s, sc := w.s, w.sc
	h := s.h
	epoch := sc.bumpEpoch()
	sc.vstamp[v] = epoch
	sc.touched = sc.touched[:0]
	weighted := s.cfg.UseEdgeWeights
	for _, e := range h.IncidentEdges(v) {
		wt := 1.0
		if weighted {
			wt = float64(h.EdgeWeight(int(e)))
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
			part := s.parts[u].Load()
			if sc.pstamp[part] != epoch {
				sc.pstamp[part] = epoch
				sc.xCounts[part] = 0
				sc.touched = append(sc.touched, part)
			}
			sc.xCounts[part] += wt
		}
	}
}

// markDirty stamps v and every neighbour as frontier members for the next
// pass. The load-check avoids re-dirtying cache lines already stamped by a
// peer (or by this worker via an earlier hot hyperedge) — on write-shared
// hyperedges the unconditional store turned every mark into cross-core
// invalidation traffic.
func (w *parallelWorker) markDirty(v int, next int32) {
	s := w.s
	h := s.h
	if atomic.LoadInt32(&s.dirty[v]) != next {
		atomic.StoreInt32(&s.dirty[v], next)
	}
	for _, e := range h.IncidentEdges(v) {
		for _, u := range h.Pins(int(e)) {
			if atomic.LoadInt32(&s.dirty[u]) != next {
				atomic.StoreInt32(&s.dirty[u], next)
			}
		}
	}
}
