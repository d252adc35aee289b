package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"hyperpraw/internal/hypergraph"
	"hyperpraw/internal/metrics"
)

// ErrParallelMigration is returned by PartitionParallel when
// Config.MigrationPenalty is set: the parallel kernel's candidate scoring
// does not implement the migration term, and silently ignoring it would
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
// every loadSyncEvery visits; per-candidate load reads are plain reads of
// the worker's epoch-refreshed view. The per-pass snapshot and load scans
// run as parallel reductions across the workers, merged at the barrier in
// worker order. PC(P) comes from the same neighbour-pair counts as Run:
// a single worker maintains them move by move exactly as the serial
// stream does, while with several workers, whose moves race, every
// barrier recounts them as per-worker partials over vertex ranges.
//
// Config.InitialParts seeds the assignment exactly as in Run. ShuffledOrder
// is ignored (workers stream their owned vertices in natural order).
// Config.MigrationPenalty is rejected with ErrParallelMigration.
//
// workers <= 0 selects GOMAXPROCS. The configuration semantics match Run.
func PartitionParallel(h *hypergraph.Hypergraph, cfg Config, workers int) (Result, error) {
	pr, err := New(h, cfg) // reuse validation and α defaulting
	if err != nil {
		return Result{}, err
	}
	cfg = pr.cfg
	cidx := pr.cidx // immutable; safe to keep after Release
	pr.Release()
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
	cidx         *CostIndex
	fastEligible bool
	expected     []float64

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
		parts:        make([]atomic.Int32, nv),
		loads:        make([]paddedLoad, p),
		cidx:         cidx,
		fastEligible: fastScanEligible(cfg, cidx, p),
		snapshot:     make([]int32, nv),
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
	s.expected = expectedLoadsFor(cfg, p, totalW)

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
	if s.fastEligible {
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
		w := &parallelWorker{
			run: r, s: s, id: id,
			sc:   acquireScratch(nv, p),
			cmds: make(chan passCmd, 1),
		}
		r.pool[id] = w
		w.lo, w.hi = clampRange(id*vchunk, vchunk, nv)
		w.rowLo, w.rowHi = clampRange(id*pchunk, pchunk, p)
		// The worker's load view reuses the scratch's serial load buffer
		// (parallel workers share assignment state, so it is otherwise
		// idle). The delta buffer must be re-zeroed: a pooled scratch may
		// carry another run's residue.
		w.view = w.sc.loads
		w.sc.delta = growI64(w.sc.delta, p)
		w.delta = w.sc.delta
		for i := range w.delta {
			w.delta[i] = 0
		}
		if s.blockAligned {
			w.sc.blockVerts = growI64(w.sc.blockVerts, nb)
			w.blockVerts = w.sc.blockVerts
		}
		w.loadOf = func(i int32) int64 { return w.view[i] }
		w.untouched = func(i int32) bool { return w.sc.pstamp[i] != w.sc.epoch }
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
func (r *parallelRun) superstep(pass int, alpha float64, frontier bool) (moves int64, imb, cost float64) {
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
	imb = imbalanceFor(s.cfg, r.loadsBuf, s.expected)

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

// run executes the driver loop — structurally identical to the serial Run,
// with the stream and the convergence scans dispatched to the pool.
func (r *parallelRun) run() Result {
	s := r.s
	cfg := s.cfg
	nv := s.nv

	alpha := cfg.Alpha0
	patience := cfg.Patience
	if patience <= 0 {
		patience = 1
	}
	res := Result{Stopped: StoppedMaxIterations}
	bestParts := make([]int32, nv)
	bestCost := math.Inf(1)
	haveBest := false
	badStreak := 0

	lastInTol := false
	consecFrontier := 0
	var passes, frontierPasses int64
	for n := 1; n <= cfg.MaxIterations; n++ {
		if cfg.Stop != nil && cfg.Stop() {
			res.Stopped = StoppedCanceled
			break
		}
		frontier := cfg.FrontierRestreaming && n > 1 && lastInTol &&
			consecFrontier+1 < frontierFullSweepEvery
		if frontier {
			consecFrontier++
		} else {
			consecFrontier = 0
		}
		passes++
		if frontier {
			frontierPasses++
		}
		moves, imb, cost := r.superstep(n, alpha, frontier)
		res.Iterations = n
		inTol := imb <= cfg.ImbalanceTolerance
		lastInTol = inTol

		st := IterationStats{
			Iteration: n, CommCost: cost, Imbalance: imb, Alpha: alpha,
			Moves: int(moves), InTolerance: inTol,
		}
		if cfg.RecordHistory {
			res.History = append(res.History, st)
		}
		if cfg.Progress != nil {
			cfg.Progress(st)
		}

		if !inTol {
			alpha *= cfg.TemperFactor
			continue
		}
		if cfg.RefinementPolicy == StopAtTolerance {
			res.Stopped = StoppedAtTolerance
			break
		}
		if !haveBest || cost < bestCost {
			bestCost = cost
			copy(bestParts, s.snapshot)
			haveBest = true
			badStreak = 0
		} else {
			badStreak++
			if badStreak >= patience {
				res.Stopped = StoppedNoImprovement
				break
			}
		}
		alpha *= cfg.RefinementFactor
	}

	final := s.snapshot
	if haveBest {
		final = bestParts
	}
	res.Parts = append([]int32(nil), final...)
	// PC(P) depends only on the partition: the best-seen one's cost is the
	// value recorded when it was saved, otherwise the snapshot's counts
	// give it.
	if haveBest {
		res.FinalCommCost = bestCost
	} else {
		res.FinalCommCost = r.commCost()
	}
	res.FinalImbalance = metrics.Imbalance(metrics.Loads(s.h, res.Parts, s.p))
	if cfg.Stats != nil {
		// Workers are quiescent between dispatches, so merging their
		// tallies here is race-free.
		total := StreamStats{Passes: passes, FrontierPasses: frontierPasses}
		for _, w := range r.pool {
			total.Add(w.tally)
		}
		cfg.Stats.Add(total)
	}
	return res
}

func expectedLoadsFor(cfg Config, p int, totalW int64) []float64 {
	expected := make([]float64, p)
	if cfg.Capacities == nil {
		e := float64(totalW) / float64(p)
		if e == 0 {
			e = 1
		}
		for i := range expected {
			expected[i] = e
		}
		return expected
	}
	var capTotal float64
	for _, c := range cfg.Capacities {
		capTotal += c
	}
	for i, c := range cfg.Capacities {
		e := float64(totalW) * c / capTotal
		if e <= 0 {
			e = 1
		}
		expected[i] = e
	}
	return expected
}

func imbalanceFor(cfg Config, loads []int64, expected []float64) float64 {
	if cfg.Capacities == nil {
		return metrics.Imbalance(loads)
	}
	worst := 0.0
	for i, l := range loads {
		if r := float64(l) / expected[i]; r > worst {
			worst = r
		}
	}
	return worst
}

// parallelWorker is one worker of the pool: a pooled scratch (gather stamps,
// min-load index, block argmin caches — same epoch-stamp scheme as the
// serial Partitioner), a private load view with batched deltas, and the
// barrier-phase outputs the driver merges.
type parallelWorker struct {
	run  *parallelRun
	s    *parallelState
	id   int
	sc   *scratch
	cmds chan passCmd

	// view is the worker's load view: refreshed from the shared padded
	// counters at stream start and every loadSyncEvery visits, updated in
	// place by the worker's own moves. Candidate scoring reads it with
	// plain loads — no atomics on the scoring path.
	view []int64
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
	passMoves int64

	loadOf    func(int32) int64
	untouched func(int32) bool

	// tally accumulates this worker's kernel activity counters; the driver
	// merges every worker's tally into Config.Stats after the last barrier.
	tally StreamStats
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
	for i := range w.view {
		w.view[i] = loads[i].v.Load()
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

	w.refreshView()
	fast := s.fastEligible && alpha > 0
	kind := s.cidx.kind
	if fast {
		// Seeded from the view just refreshed; a peer's later moves leave
		// the worker's caches slightly stale until the next sync point,
		// consistent with the GraSP relaxation.
		if kind == costBlocked {
			sc.resetBlockState(len(s.cidx.blocks))
		} else {
			sc.minIdx.reset(s.expected, w.loadOf)
		}
	}
	scanOff := false
	scanTried, scanWork := 0, 0
	nb := len(s.cidx.blocks)
	mark := s.cfg.FrontierRestreaming
	next := int32(pass) + 1
	expected := s.expected
	blockAligned := s.blockAligned && multi
	var owner []int32
	var blockOf []int32
	var snap []int32
	if blockAligned {
		owner, blockOf, snap = s.blockOwner, s.cidx.blockOf, s.snapshot
	}
	syncCountdown := loadSyncEvery
	var nExh, nUni, nBlk, nBnd, nFallback, visited, moves int64

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
				if fast && !scanOff {
					// The refreshed view invalidates every cached minimum
					// keyed on the old one.
					if kind == costBlocked {
						for b := range sc.blockStale {
							sc.blockStale[b] = true
						}
					} else {
						sc.minIdx.reset(expected, w.loadOf)
					}
				}
			}
		}
		w.gather(v)
		cur := s.parts[v].Load()

		var bestPart int32
		switch {
		case !fast || scanOff:
			bestPart = w.pickExhaustive(cur, alpha, expected)
			nExh++
			if scanOff {
				nFallback++
			}
		case kind == costUniform:
			bestPart = w.pickUniform(cur, alpha, expected)
			nUni++
		case kind == costBlocked:
			var work int
			bestPart, work = w.pickBlocked(cur, alpha, expected)
			nBlk++
			scanTried++
			scanWork += work
			if scanTried >= 128 && scanWork > scanTried*(nb+s.p/2) {
				scanOff = true
			}
		default:
			var pops int
			bestPart, pops = w.pickBounded(cur, alpha, expected)
			nBnd++
			scanTried++
			scanWork += pops
			if scanTried >= 128 && scanWork > 3*scanTried {
				scanOff = true
			}
		}

		if bestPart != cur {
			moves++
			wt := h.VertexWeight(v)
			w.view[cur] -= wt
			w.view[bestPart] += wt
			w.delta[cur] -= wt
			w.delta[bestPart] += wt
			s.parts[v].Store(bestPart)
			if !multi {
				sc.movePairs(cur, bestPart)
			}
			if fast && !scanOff {
				if kind == costBlocked {
					sc.blockNoteMove(s.cidx, cur, bestPart,
						float64(w.view[cur])/expected[cur])
				} else {
					sc.minIdx.update(cur, w.view[cur])
					sc.minIdx.update(bestPart, w.view[bestPart])
				}
			}
			if mark {
				w.markDirty(v, next)
			}
		}
	}
	w.flushDeltas()
	w.passMoves = moves

	t := &w.tally
	if frontierOnly {
		t.FrontierVisited += visited
	}
	t.Moves += moves
	t.ScanExhaustive += nExh
	t.ScanUniform += nUni
	t.ScanBlocked += nBlk
	t.ScanBounded += nBnd
	t.ExhaustiveFallbacks += nFallback
	if kind == costBlocked {
		t.BlockedWork += int64(scanWork)
	} else {
		t.BoundedPops += int64(scanWork)
	}
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

// pickExhaustive is the O(p) reference scan against the worker's load view.
func (w *parallelWorker) pickExhaustive(cur int32, alpha float64, expected []float64) int32 {
	s, sc := w.s, w.sc
	cost := s.cfg.CostMatrix
	p := s.p
	nbrParts := float64(len(sc.touched))
	bestPart := int32(0)
	bestVal := math.Inf(-1)
	for i := 0; i < p; i++ {
		t := 0.0
		ci := cost[i]
		for _, j := range sc.touched {
			t += sc.xCounts[j] * ci[j]
		}
		ni := nbrParts
		if sc.pstamp[i] == sc.epoch {
			ni--
		}
		ni /= float64(p)
		val := -ni*t - alpha*float64(w.view[i])/expected[i]
		if val > bestVal || (val == bestVal && int32(i) == cur) {
			bestVal = val
			bestPart = int32(i)
		}
	}
	return bestPart
}

// pickUniform is the touched-only scan for uniform off-diagonal cost
// matrices (see Partitioner.pickUniform for the full argument; this twin
// reads the worker's load view instead of the serial loads).
func (w *parallelWorker) pickUniform(cur int32, alpha float64, expected []float64) int32 {
	s, sc := w.s, w.sc
	c := s.cidx.uniformC
	p := float64(s.p)
	nbrParts := float64(len(sc.touched))
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
		t := 0.0
		for _, j := range sc.touched {
			if j != i {
				t += sc.xCounts[j] * c
			}
		}
		val := -niT*t - alpha*float64(w.view[i])/expected[i]
		considerCandidate(&bestVal, &bestPart, i, cur, val)
	}
	if e, ok := sc.minIdx.popBestUntouched(w.untouched); ok {
		val := -niU*tU - alpha*float64(w.view[e.idx])/expected[e.idx]
		considerCandidate(&bestVal, &bestPart, e.idx, cur, val)
	}
	sc.minIdx.restore()
	curTouched := sc.pstamp[cur] == sc.epoch
	if !curTouched {
		val := -niU*tU - alpha*float64(w.view[cur])/expected[cur]
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
			alpha*float64(w.view[i])/expected[i], 0, bestVal) {
			w.tally.TouchedPruned++
			continue
		}
		scoreTouched(i)
	}
	return bestPart
}

// pickBounded is the pruned touched-only scan for general cost matrices
// (see Partitioner.pickBounded).
func (w *parallelWorker) pickBounded(cur int32, alpha float64, expected []float64) (best int32, pops int) {
	s, sc := w.s, w.sc
	cost := s.cfg.CostMatrix
	p := float64(s.p)
	nbrParts := float64(len(sc.touched))
	sumX := 0.0
	for _, j := range sc.touched {
		sumX += sc.xCounts[j]
	}
	loS := s.cidx.minOff * sumX
	niU := nbrParts / p

	bestPart := int32(-1)
	bestVal := math.Inf(-1)
	score := func(i int32, isTouched bool) {
		t := 0.0
		ci := cost[i]
		for _, j := range sc.touched {
			t += sc.xCounts[j] * ci[j]
		}
		ni := nbrParts
		if isTouched {
			ni--
		}
		ni /= p
		val := -ni*t - alpha*float64(w.view[i])/expected[i]
		considerCandidate(&bestVal, &bestPart, i, cur, val)
	}
	for _, i := range sc.touched {
		score(i, true)
	}
	if sc.pstamp[cur] != sc.epoch {
		score(cur, false)
	}
	budget := boundedPopBudget(s.p)
	for ; budget > 0; budget-- {
		e, ok := sc.minIdx.popBestUntouched(w.untouched)
		if !ok {
			break
		}
		pops++
		ub := -niU*loS - alpha*e.q
		ub += boundMargin * (math.Abs(ub) + 1)
		if ub < bestVal {
			break
		}
		score(e.idx, false)
	}
	sc.minIdx.restore()
	if budget == 0 {
		w.tally.ExhaustiveFallbacks++
		return w.pickExhaustive(cur, alpha, expected), pops
	}
	return bestPart, pops
}

// pickBlocked is the tiered block walk for hierarchical cost matrices
// (see Partitioner.pickBlocked for the full argument; this twin reads the
// worker's load view instead of the serial loads). The per-block argmin
// caches are per worker and — under block-aligned ownership — cover mostly
// the worker's own blocks' loads, so peer moves rarely invalidate them
// between sync points; any residual staleness only mis-orders the
// candidate search, consistent with the GraSP relaxation. With a single
// worker the view is exact and the walk is move-for-move identical to the
// exhaustive reference.
func (w *parallelWorker) pickBlocked(cur int32, alpha float64, expected []float64) (best int32, work int) {
	s, sc := w.s, w.sc
	ci := s.cidx
	cost := s.cfg.CostMatrix
	p := float64(s.p)
	nbrParts := float64(len(sc.touched))
	epoch := sc.epoch
	jstar, _ := heaviestTouched(sc)
	niU := nbrParts / p
	niT := (nbrParts - 1) / p

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
			row := cost[i]
			for _, j := range sc.touched {
				t += sc.xCounts[j] * row[j]
			}
		}
		ni := nbrParts
		if isTouched {
			ni--
		}
		ni /= p
		val := -ni*t - alpha*float64(w.view[i])/expected[i]
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

	champ := int32(-1)
	q0 := math.Inf(1)
	for b := range sc.blockMinQ {
		if sc.blockStale[b] {
			w.refreshBlockMin(int32(b), expected)
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
		} else if i, _, ok := w.minAvailableInBlock(champ, expected); ok {
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
				alpha*float64(w.view[i])/expected[i], 0, bestVal) {
			w.tally.TouchedPruned++
			continue
		}
		score(i, true, 0, false)
	}

	for _, b := range ci.blockOrder[jstar] {
		tLB := tLBAll[b]
		ubBlock := -niU*tLB - alpha*sc.blockMinQ[b]
		ubBlock += boundMargin * (math.Abs(ubBlock) + 1)
		if ubBlock < bestVal {
			w.tally.BlockRejections++
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
				i, q, ok = w.minAvailableInBlock(b, expected)
				work++
			}
			first = false
			if !ok {
				break
			}
			ub := -niU*tLB - alpha*q
			ub += boundMargin * (math.Abs(ub) + 1)
			if ub < bestVal {
				break
			}
			score(i, false, tLB, exact)
			if exact {
				w.tally.ExactSettles++
				break
			}
		}
	}
	return bestPart, work
}

// refreshBlockMin recomputes block b's cached (min load, argmin) from the
// worker's load view.
func (w *parallelWorker) refreshBlockMin(b int32, expected []float64) {
	s, sc := w.s, w.sc
	bq, bi := math.Inf(1), int32(-1)
	for _, i := range s.cidx.blocks[b].members {
		if q := float64(w.view[i]) / expected[i]; q < bq {
			bq, bi = q, i
		}
	}
	sc.blockMinQ[b], sc.blockMinIdx[b] = bq, bi
	sc.blockStale[b] = false
}

// minAvailableInBlock returns block b's least-loaded member (ties to the
// lowest index) not yet touched or scored for the current vertex.
func (w *parallelWorker) minAvailableInBlock(b int32, expected []float64) (idx int32, q float64, ok bool) {
	s, sc := w.s, w.sc
	epoch := sc.epoch
	bq, bi := math.Inf(1), int32(-1)
	for _, i := range s.cidx.blocks[b].members {
		if sc.pstamp[i] == epoch || sc.sstamp[i] == epoch {
			continue
		}
		if qi := float64(w.view[i]) / expected[i]; qi < bq {
			bq, bi = qi, i
		}
	}
	if bi < 0 {
		return 0, 0, false
	}
	return bi, bq, true
}
