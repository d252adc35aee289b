// Package core implements HyperPRAW, the paper's contribution: an
// architecture-aware restreaming hypergraph partitioner.
//
// The algorithm (paper Algorithm 1) starts from a round-robin assignment and
// repeatedly streams the vertex set. For each vertex it evaluates, for every
// candidate partition i, the value function of eq 1:
//
//	V_i(v) = −N_i(v)·T_i(v) − α·W(i)/E(i)
//
// where N_i(v) is the (normalised) number of *other* partitions holding
// neighbours of v, T_i(v) = Σ_j X_j(v)·C(i,j) is the physical cost of the
// communication v would incur from partition i, W(i) is partition i's
// current load and E(i) its expected share. The vertex moves to the argmax.
//
// α tempering follows FENNEL/GRaSP: α starts low (communication dominates),
// is multiplied by tα = 1.7 after each stream while the workload imbalance
// exceeds the tolerance, and — the paper's refinement contribution — once
// within tolerance the update factor switches to the refinement factor
// (0.95 decays α, trading a little balance for better communication) and the
// restreaming continues until the partitioning communication cost PC(P)
// stops improving.
//
// HyperPRAW-aware passes the profiled cost matrix as C; HyperPRAW-basic
// passes the uniform matrix. Nothing else differs between the two modes.
package core

import (
	"fmt"
	"math"

	"hyperpraw/internal/hypergraph"
	"hyperpraw/internal/metrics"
)

// Config parameterises a HyperPRAW run. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	// CostMatrix is C(i,j): square, one row per partition, zero diagonal.
	// Its dimension determines the number of partitions. Use
	// profile.UniformCost for HyperPRAW-basic and profile.CostMatrix of a
	// profiled bandwidth matrix for HyperPRAW-aware.
	CostMatrix [][]float64
	// Alpha0 is the starting workload-balance weight. Zero selects FENNEL's
	// recommendation sqrt(p)·|E|/sqrt(|V|) (paper §4).
	Alpha0 float64
	// TemperFactor is tα, the α multiplier applied after each stream while
	// imbalance exceeds the tolerance. The paper uses 1.7.
	TemperFactor float64
	// RefinementPolicy selects the behaviour once within tolerance.
	RefinementPolicy RefinementPolicy
	// RefinementFactor is the α multiplier during the refinement phase
	// (paper: 0.95 best, 1.0 keeps α constant). Only used with
	// RefineUntilNoImprovement.
	RefinementFactor float64
	// ImbalanceTolerance is the acceptable max/mean load ratio (> 1).
	ImbalanceTolerance float64
	// MaxIterations caps the number of streams (paper's N).
	MaxIterations int
	// Patience is how many consecutive non-improving refinement iterations
	// are tolerated before stopping and returning the best partition seen.
	// The paper's Algorithm 1 stops at the first worsening (Patience = 1);
	// its Fig 3 histories, however, show refinement running 50–100
	// iterations through local fluctuations, which a patience of a few
	// iterations reproduces on small noisy instances. Default 3.
	Patience int
	// ShuffledOrder visits vertices in a per-stream random order instead of
	// the natural order. Natural order matches the paper; shuffling is an
	// ablation knob (see the ablation benchmarks).
	ShuffledOrder bool
	// Seed drives the shuffled order (unused otherwise).
	Seed uint64
	// RecordHistory stores per-iteration statistics in the result (used for
	// Fig 3).
	RecordHistory bool
	// Progress, when non-nil, is called synchronously after every stream
	// with that stream's statistics — the live counterpart of RecordHistory,
	// used by the serving layer to push per-iteration progress to clients
	// while the run is still going. The callback runs on the partitioning
	// goroutine; a slow callback slows the run.
	Progress func(IterationStats)
	// Stop, when non-nil, is polled between streams; returning true ends
	// the run with StoppedCanceled and the best partition found so far.
	// This is the cooperative cancellation hook the serving layer uses to
	// enforce per-job deadlines: a stuck refinement cannot hold a worker
	// slot past its budget. Polled once per stream, so cancellation
	// latency is one pass, not one vertex.
	Stop func() bool
	// UseEdgeWeights switches the neighbour count X_j(v) from distinct
	// neighbours to hyperedge-weighted pin incidences, implementing the
	// paper's §8.2 extension for asymmetric communication patterns ("weighing
	// the cost of communications in the vertex assignment objective function
	// with the hyperedge weight"). With all weights 1 this counts each
	// shared hyperedge separately rather than each distinct neighbour once.
	UseEdgeWeights bool
	// Capacities optionally gives each partition a relative work capacity
	// (paper §4.1: "the algorithm can easily account for heterogeneous
	// computation and work capacities"). nil means homogeneous. When set,
	// the expected load E(i) becomes totalW·cap_i/Σcap and the imbalance is
	// max_i W(i)/E(i).
	Capacities []float64
	// MigrationPenalty, when positive, subtracts penalty·w(v) from the value
	// of every partition other than the vertex's current one, discouraging
	// data movement. This implements the repartitioning-with-migration-cost
	// model of the paper's related work (Catalyurek et al. [6,7]) within the
	// restreaming framework: useful when the partition is being *re*computed
	// for an application whose data already lives somewhere. 0 disables it.
	MigrationPenalty float64
	// InitialParts optionally seeds the stream with an existing assignment
	// instead of round-robin (the repartitioning scenario). Must assign
	// every vertex to [0, p) when set.
	InitialParts []int32
	// FrontierRestreaming streams only the moved-vertex frontier once the
	// partition is inside the imbalance tolerance: a vertex is revisited in
	// pass n+1 iff it or a neighbour moved in pass n. Full corrective sweeps
	// still run while out of tolerance (α tempering must reach every vertex)
	// and every frontierFullSweepEvery-th pass thereafter. Off by default:
	// the paper's semantics stream every vertex every pass; frontier mode
	// reaches a cut of equivalent quality (see the equivalence tests) in a
	// fraction of the refinement work.
	FrontierRestreaming bool
	// Index optionally supplies a prebuilt cost-tier index for CostMatrix
	// (see BuildCostIndex). It must have been built from this exact matrix
	// instance; a mismatched index is detected and rebuilt. nil makes New
	// build one — callers that reuse a matrix across many runs (the
	// serving layer's cached Environments) should build once and share.
	Index *CostIndex
	// Stats, when non-nil, receives the run's kernel activity counters
	// (scan strategy mix, pruning effectiveness, frontier sizes) — see
	// StreamStats. Accumulated with Add semantics at the end of Run, so
	// one sink can aggregate several runs. Collection is bookkeeping only
	// and never changes a move decision.
	Stats *StreamStats

	// forceExhaustive pins the kernel to the original O(p)-per-vertex
	// candidate scan. Unexported: only the in-package equivalence tests and
	// benchmarks use it, as the reference and baseline respectively.
	forceExhaustive bool
	// forceTouchedOnly enables the touched-only scan below
	// fastScanMinPartitions, where it is a net loss and normally skipped.
	// Unexported: the equivalence tests use it to exercise the fast paths at
	// small p.
	forceTouchedOnly bool
}

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

// frontierFullSweepEvery is the cadence of corrective full sweeps in
// frontier mode: after this many consecutive frontier passes, one pass
// streams every vertex again so drift in α and the loads reaches vertices
// the frontier never revisited.
const frontierFullSweepEvery = 8

// boundMargin is the relative slack added to the untouched-candidate upper
// bound of the pruned scan (pickBounded), so floating-point rounding can
// only make the scan examine more candidates than strictly necessary, never
// fewer.
const boundMargin = 1e-9

// RefinementPolicy is the stopping behaviour once the partition is within
// the imbalance tolerance.
type RefinementPolicy int

const (
	// RefineUntilNoImprovement continues restreaming until PC(P) stops
	// improving (the paper's refinement phase).
	RefineUntilNoImprovement RefinementPolicy = iota
	// StopAtTolerance halts as soon as the imbalance tolerance is met
	// (the paper's "no refinement" baseline, as in GRaSP).
	StopAtTolerance
)

// DefaultConfig returns the paper's configuration for p partitions with the
// given cost matrix: FENNEL α start, tα = 1.7, refinement 0.95, 10%
// imbalance tolerance, 100 iteration cap.
func DefaultConfig(cost [][]float64) Config {
	return Config{
		CostMatrix:         cost,
		TemperFactor:       1.7,
		RefinementPolicy:   RefineUntilNoImprovement,
		RefinementFactor:   0.95,
		ImbalanceTolerance: 1.10,
		MaxIterations:      100,
		Patience:           3,
	}
}

// IterationStats records the state after one full stream.
type IterationStats struct {
	Iteration int
	// CommCost is PC(P) measured with the algorithm's own cost matrix.
	CommCost  float64
	Imbalance float64
	// Alpha is the balance weight used during this stream.
	Alpha float64
	// Moves is how many vertices changed partition during the stream.
	Moves int
	// InTolerance reports whether the stream ended within the imbalance
	// tolerance (i.e. whether the next stream runs in refinement mode).
	InTolerance bool
}

// Result is the outcome of a HyperPRAW run.
type Result struct {
	// Parts assigns each vertex its partition.
	Parts []int32
	// Iterations is the number of streams executed.
	Iterations int
	// Stopped explains why the run ended.
	Stopped StopReason
	// History holds per-iteration statistics when Config.RecordHistory is
	// set.
	History []IterationStats
	// FinalCommCost is PC(P) of Parts under the algorithm's cost matrix.
	FinalCommCost float64
	// FinalImbalance is the max/mean load ratio of Parts.
	FinalImbalance float64
}

// StopReason explains termination.
type StopReason int

const (
	// StoppedNoImprovement: the refinement phase saw PC(P) worsen and
	// returned the previous (best) partition.
	StoppedNoImprovement StopReason = iota
	// StoppedAtTolerance: StopAtTolerance policy hit the tolerance.
	StoppedAtTolerance
	// StoppedMaxIterations: the iteration cap was reached.
	StoppedMaxIterations
	// StoppedCanceled: the Config.Stop hook requested termination (deadline
	// or shutdown). Parts holds the best partition found before the stop.
	StoppedCanceled
)

func (r StopReason) String() string {
	switch r {
	case StoppedNoImprovement:
		return "no-improvement"
	case StoppedAtTolerance:
		return "at-tolerance"
	case StoppedMaxIterations:
		return "max-iterations"
	case StoppedCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("StopReason(%d)", int(r))
	}
}

// Partitioner holds the streaming state for one hypergraph/machine pair.
// Create with New, run with Run, and call Release when done to return the
// pooled buffers. A Partitioner is not safe for concurrent use.
type Partitioner struct {
	h   *hypergraph.Hypergraph
	cfg Config
	p   int

	parts  []int32 // aliases sc.parts
	loads  []int64 // aliases sc.loads
	totalW int64

	// sc holds every reusable buffer (gather stamps, min-load index,
	// frontier stamps, assignment vectors), recycled across Partitioners via
	// a sync.Pool so steady-state serving is allocation-free in the kernel.
	sc *scratch

	// cidx is the cost-tier index: the matrix's structure classification
	// plus the block floors and walk orders the blocked scan consumes.
	// Taken from Config.Index when it matches the matrix, built otherwise.
	cidx *CostIndex

	// fastEligible caches whether the touched-only scan pays off for this
	// (cost structure, p) pair; see fastScanEligible.
	fastEligible bool

	// tally accumulates kernel activity counters across streams; Run
	// flushes it into Config.Stats. Always maintained (the increments are
	// noise next to the scoring arithmetic) so benchmarks measure the same
	// code path the serving layer runs.
	tally StreamStats

	// Hoisted closures for the min-load index (allocated once, not per
	// vertex).
	loadOfFn    func(int32) int64
	untouchedFn func(int32) bool
}

// New validates the configuration and prepares a Partitioner.
func New(h *hypergraph.Hypergraph, cfg Config) (*Partitioner, error) {
	p := len(cfg.CostMatrix)
	if p == 0 {
		return nil, fmt.Errorf("core: empty cost matrix")
	}
	for i, row := range cfg.CostMatrix {
		if len(row) != p {
			return nil, fmt.Errorf("core: cost matrix row %d has %d entries, want %d", i, len(row), p)
		}
		if row[i] != 0 {
			return nil, fmt.Errorf("core: cost matrix diagonal must be zero (row %d is %g)", i, row[i])
		}
	}
	if cfg.ImbalanceTolerance <= 1 {
		return nil, fmt.Errorf("core: imbalance tolerance must exceed 1, got %g", cfg.ImbalanceTolerance)
	}
	if cfg.MaxIterations <= 0 {
		return nil, fmt.Errorf("core: max iterations must be positive, got %d", cfg.MaxIterations)
	}
	if cfg.TemperFactor <= 0 {
		return nil, fmt.Errorf("core: temper factor must be positive, got %g", cfg.TemperFactor)
	}
	if cfg.RefinementPolicy == RefineUntilNoImprovement && cfg.RefinementFactor <= 0 {
		return nil, fmt.Errorf("core: refinement factor must be positive, got %g", cfg.RefinementFactor)
	}
	if cfg.Capacities != nil {
		if len(cfg.Capacities) != p {
			return nil, fmt.Errorf("core: %d capacities for %d partitions", len(cfg.Capacities), p)
		}
		for i, c := range cfg.Capacities {
			if c <= 0 {
				return nil, fmt.Errorf("core: capacity %d is non-positive (%g)", i, c)
			}
		}
	}
	if cfg.InitialParts != nil {
		if len(cfg.InitialParts) != h.NumVertices() {
			return nil, fmt.Errorf("core: initial partition length %d, want %d", len(cfg.InitialParts), h.NumVertices())
		}
		for v, q := range cfg.InitialParts {
			if q < 0 || int(q) >= p {
				return nil, fmt.Errorf("core: initial partition assigns vertex %d to %d, want [0,%d)", v, q, p)
			}
		}
	}
	if cfg.MigrationPenalty < 0 {
		return nil, fmt.Errorf("core: negative migration penalty %g", cfg.MigrationPenalty)
	}
	if cfg.Alpha0 == 0 {
		cfg.Alpha0 = FennelAlpha(p, h.NumEdges(), h.NumVertices())
	}
	cidx := cfg.Index
	if !cidx.matches(cfg.CostMatrix) {
		cidx = BuildCostIndex(cfg.CostMatrix)
	}
	sc := acquireScratch(h.NumVertices(), p)
	sc.parts = growI32(sc.parts, h.NumVertices())
	sc.pairs.size(p)
	pr := &Partitioner{
		h:     h,
		cfg:   cfg,
		p:     p,
		parts: sc.parts,
		loads: sc.loads,
		sc:    sc,
		cidx:  cidx,
	}
	pr.loadOfFn = func(i int32) int64 { return pr.loads[i] }
	pr.untouchedFn = func(i int32) bool { return pr.sc.pstamp[i] != pr.sc.epoch }
	pr.fastEligible = fastScanEligible(cfg, cidx, p)
	return pr, nil
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

// Release returns the Partitioner's pooled buffers; the Partitioner (and any
// aliases of its internal state) must not be used afterwards. Results
// returned by Run are copies and stay valid.
func (pr *Partitioner) Release() {
	releaseScratch(pr.sc)
	pr.sc = nil
	pr.parts = nil
	pr.loads = nil
}

// costStructure classifies the cost matrix for the touched-only scan:
// whether every off-diagonal entry is one constant (HyperPRAW-basic and the
// uniform benchmarks), and the smallest off-diagonal entry, which lower-
// bounds any candidate's communication term in the pruned scan.
func costStructure(cost [][]float64) (uniform bool, uniformC, minOff float64) {
	uniform = true
	first := true
	for i, row := range cost {
		for j, c := range row {
			if i == j {
				continue
			}
			if first {
				uniformC, minOff = c, c
				first = false
				continue
			}
			if c != uniformC {
				uniform = false
			}
			if c < minOff {
				minOff = c
			}
		}
	}
	return uniform, uniformC, minOff
}

// FennelAlpha returns the FENNEL starting value sqrt(p)·|E|/sqrt(|V|)
// (Tsourakakis et al., adopted by the paper in §4).
func FennelAlpha(p, numEdges, numVertices int) float64 {
	if numVertices == 0 {
		return 1
	}
	return math.Sqrt(float64(p)) * float64(numEdges) / math.Sqrt(float64(numVertices))
}

// Run executes Algorithm 1 and returns the resulting partition.
func (pr *Partitioner) Run() Result {
	nv := pr.h.NumVertices()
	pr.resetAssignment()
	expected := pr.expectedLoads()

	alpha := pr.cfg.Alpha0
	patience := pr.cfg.Patience
	if patience <= 0 {
		patience = 1
	}
	res := Result{Stopped: StoppedMaxIterations}
	// bestParts is the lowest-cost in-tolerance partition seen so far; it is
	// what a stop in the refinement phase returns (the paper's "return
	// P^{n-1}" generalised to patience > 1). Only the refinement policy
	// needs it, so it is sized here, not in acquireScratch.
	if pr.cfg.RefinementPolicy == RefineUntilNoImprovement {
		pr.sc.bestParts = growI32(pr.sc.bestParts, nv)
	}
	bestParts := pr.sc.bestParts
	bestCost := math.Inf(1)
	haveBest := false
	badStreak := 0

	var order []int32
	var orderRNG *splitMix
	if pr.cfg.ShuffledOrder {
		pr.sc.order = growI32(pr.sc.order, nv)
		order = pr.sc.order
		for i := range order {
			order[i] = int32(i)
		}
		orderRNG = &splitMix{state: pr.cfg.Seed ^ 0x5eed}
	}
	if pr.cfg.FrontierRestreaming {
		// Fresh stamps per run keep frontier runs deterministic no matter
		// what a pooled scratch streamed before.
		pr.sc.dirty = growI32(pr.sc.dirty, nv)
		for i := range pr.sc.dirty {
			pr.sc.dirty[i] = 0
		}
	}

	lastInTol := false
	consecFrontier := 0
	for n := 1; n <= pr.cfg.MaxIterations; n++ {
		if pr.cfg.Stop != nil && pr.cfg.Stop() {
			res.Stopped = StoppedCanceled
			break
		}
		if pr.cfg.ShuffledOrder {
			orderRNG.shuffle(order)
		}
		frontier := pr.cfg.FrontierRestreaming && n > 1 && lastInTol &&
			consecFrontier+1 < frontierFullSweepEvery
		if frontier {
			consecFrontier++
		} else {
			consecFrontier = 0
		}
		moves := pr.stream(alpha, expected, order, n, frontier)
		res.Iterations = n

		imb := pr.imbalance(expected)
		inTol := imb <= pr.cfg.ImbalanceTolerance
		lastInTol = inTol
		cost := pr.monitoredCost()

		st := IterationStats{
			Iteration:   n,
			CommCost:    cost,
			Imbalance:   imb,
			Alpha:       alpha,
			Moves:       moves,
			InTolerance: inTol,
		}
		if pr.cfg.RecordHistory {
			res.History = append(res.History, st)
		}
		if pr.cfg.Progress != nil {
			pr.cfg.Progress(st)
		}

		if !inTol {
			// Outside tolerance: keep tempering up.
			alpha *= pr.cfg.TemperFactor
			continue
		}

		if pr.cfg.RefinementPolicy == StopAtTolerance {
			res.Stopped = StoppedAtTolerance
			break
		}

		// Refinement phase: track the best in-tolerance partition and stop
		// once the monitored metric has failed to improve for `patience`
		// consecutive streams.
		if !haveBest || cost < bestCost {
			bestCost = cost
			copy(bestParts, pr.parts)
			haveBest = true
			badStreak = 0
		} else {
			badStreak++
			if badStreak >= patience {
				res.Stopped = StoppedNoImprovement
				break
			}
		}
		alpha *= pr.cfg.RefinementFactor
	}
	if haveBest {
		copy(pr.parts, bestParts)
	}

	res.Parts = append([]int32(nil), pr.parts...)
	// PC(P) depends only on the partition, so the restored best partition's
	// cost is the value recorded when it was saved.
	if haveBest {
		res.FinalCommCost = bestCost
	} else {
		res.FinalCommCost = pr.monitoredCost()
	}
	res.FinalImbalance = metrics.Imbalance(metrics.Loads(pr.h, res.Parts, pr.p))
	if pr.cfg.Stats != nil {
		pr.cfg.Stats.Add(pr.tally)
		pr.tally = StreamStats{}
	}
	return res
}

// resetAssignment restores the initial assignment (round-robin, or the
// caller's when repartitioning), the loads derived from it, and the
// neighbour-pair counts the convergence check maintains from then on. Run
// starts with it; the kernel benchmarks call it to restart between
// measured streams.
func (pr *Partitioner) resetAssignment() {
	h, p := pr.h, pr.p
	nv := h.NumVertices()
	if pr.cfg.InitialParts != nil {
		copy(pr.parts, pr.cfg.InitialParts)
	} else {
		for v := 0; v < nv; v++ {
			pr.parts[v] = int32(v % p)
		}
	}
	for i := range pr.loads {
		pr.loads[i] = 0
	}
	pr.totalW = 0
	for v := 0; v < nv; v++ {
		w := h.VertexWeight(v)
		pr.loads[pr.parts[v]] += w
		pr.totalW += w
	}
	pr.sc.countPairs(h, pr.parts, pr.cfg.UseEdgeWeights, &pr.sc.pairs, 0, p)
}

// expectedLoads returns E(i) per partition: totalW/p for homogeneous
// machines, or proportional to the configured capacities.
func (pr *Partitioner) expectedLoads() []float64 {
	expected := pr.sc.expected
	if pr.cfg.Capacities == nil {
		e := float64(pr.totalW) / float64(pr.p)
		if e == 0 {
			e = 1
		}
		for i := range expected {
			expected[i] = e
		}
		return expected
	}
	var capTotal float64
	for _, c := range pr.cfg.Capacities {
		capTotal += c
	}
	for i, c := range pr.cfg.Capacities {
		e := float64(pr.totalW) * c / capTotal
		if e <= 0 {
			e = 1
		}
		expected[i] = e
	}
	return expected
}

// imbalance returns the workload imbalance: the paper's max/mean ratio for
// homogeneous partitions, or max_i W(i)/E(i) under heterogeneous capacities.
func (pr *Partitioner) imbalance(expected []float64) float64 {
	if pr.cfg.Capacities == nil {
		return metrics.Imbalance(pr.loads)
	}
	worst := 0.0
	for i, l := range pr.loads {
		if r := float64(l) / expected[i]; r > worst {
			worst = r
		}
	}
	return worst
}

// monitoredCost is the refinement-phase quality metric: PC(P) with the
// algorithm's own cost matrix, hyperedge-weighted when UseEdgeWeights,
// evaluated from the pair counts the stream keeps current (see
// pairCounts.cost).
func (pr *Partitioner) monitoredCost() float64 {
	return pr.sc.pairs.cost(pr.cfg.CostMatrix)
}

// splitMix is a tiny local PRNG for the optional shuffled stream order
// (avoids importing internal/stats into the hot core package).
type splitMix struct{ state uint64 }

func (s *splitMix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitMix) shuffle(xs []int32) {
	for i := len(xs) - 1; i > 0; i-- {
		j := int(s.next() % uint64(i+1))
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// stream performs one pass, reassigning each visited vertex greedily, and
// returns the number of vertices that moved. order, when non-nil, gives the
// visiting sequence; nil means natural order. pass is the 1-based iteration
// number; when frontierOnly is set, only vertices whose dirty stamp matches
// this pass (they or a neighbour moved last pass) are visited.
//
// Candidate scoring dispatches on the cost-tier index's classification of
// the matrix: uniform → pickUniform (single heap pop), blocked
// (hierarchical) → pickBlocked (tiered block walk), unstructured →
// pickBounded (scalar-bound pruned scan). Every fast scan is move-for-move
// identical to the exhaustive O(p) reference (pickExhaustive) but costs
// far less per vertex. They need α > 0 — the untouched-candidate ordering
// assumes load is a penalty — which only a caller-supplied Alpha0 ≤ 0 can
// violate; that falls back to the exhaustive scan.
func (pr *Partitioner) stream(alpha float64, expected []float64, order []int32, pass int, frontierOnly bool) int {
	h := pr.h
	sc := pr.sc
	nv := h.NumVertices()
	moves := 0

	fast := pr.fastEligible && alpha > 0
	kind := pr.cidx.kind
	if fast {
		// The uniform and bounded strategies keep the global min-load
		// heap; the blocked scan keeps flat per-block argmin caches.
		if kind == costBlocked {
			sc.resetBlockState(len(pr.cidx.blocks))
		} else {
			sc.minIdx.reset(expected, pr.loadOfFn)
		}
	}
	// Per-stream pruning verdicts for the structured scans (see
	// pickBounded and pickBlocked).
	scanOff := false
	scanTried, scanWork := 0, 0
	nb := len(pr.cidx.blocks)
	mark := pr.cfg.FrontierRestreaming
	next := int32(pass) + 1
	// Stream-local activity counters, flushed into the tally once at the
	// end so the hot loop touches registers, not struct fields.
	var nExh, nUni, nBlk, nBnd, nFallback, visited int64

	for idx := 0; idx < nv; idx++ {
		v := idx
		if order != nil {
			v = int(order[idx])
		}
		// Visit when due this pass OR already marked for the next one (a
		// neighbour that moved earlier in this very pass must not cancel a
		// pending visit by overwriting the stamp with pass+1).
		if frontierOnly {
			if sc.dirty[v] < int32(pass) {
				continue
			}
			visited++
		}
		pr.gatherNeighbourCounts(v)

		var bestPart int32
		switch {
		case !fast || scanOff:
			bestPart = pr.pickExhaustive(v, alpha, expected)
			nExh++
			if scanOff {
				nFallback++
			}
		case kind == costUniform:
			bestPart = pr.pickUniform(v, alpha, expected)
			nUni++
		case kind == costBlocked:
			var work int
			bestPart, work = pr.pickBlocked(v, alpha, expected)
			nBlk++
			scanTried++
			scanWork += work
			// The block walk wins while pruning keeps the scored set small;
			// if the observed work approaches the exhaustive scan's p, stop
			// paying the heap traffic for the rest of this stream. The next
			// stream re-evaluates.
			if scanTried >= 128 && scanWork > scanTried*(nb+pr.p/2) {
				scanOff = true
			}
		default:
			var pops int
			bestPart, pops = pr.pickBounded(v, alpha, expected)
			nBnd++
			scanTried++
			scanWork += pops
			// The pruned scan only beats the exhaustive one when the load
			// bound closes almost immediately; once the observed pop work
			// says otherwise (α decayed, loads equalised), stop paying the
			// heap traffic for the rest of this stream.
			if scanTried >= 128 && scanWork > 3*scanTried {
				scanOff = true
			}
		}

		if old := pr.parts[v]; bestPart != old {
			w := h.VertexWeight(v)
			pr.loads[old] -= w
			pr.loads[bestPart] += w
			pr.parts[v] = bestPart
			sc.movePairs(old, bestPart)
			if fast && !scanOff {
				if kind == costBlocked {
					sc.blockNoteMove(pr.cidx, old, bestPart,
						float64(pr.loads[old])/expected[old])
				} else {
					sc.minIdx.update(old, pr.loads[old])
					sc.minIdx.update(bestPart, pr.loads[bestPart])
				}
			}
			if mark {
				pr.markDirty(v, next)
			}
			moves++
		}
	}

	t := &pr.tally
	t.Passes++
	if frontierOnly {
		t.FrontierPasses++
		t.FrontierVisited += visited
	}
	t.Moves += int64(moves)
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
	return moves
}

// pickExhaustive scores every partition for v: the original O(p) kernel and
// the reference that the touched-only scan must match move for move.
func (pr *Partitioner) pickExhaustive(v int, alpha float64, expected []float64) int32 {
	h, p := pr.h, pr.p
	sc := pr.sc
	cost := pr.cfg.CostMatrix

	// Number of partitions holding neighbours of v; A_i(v) per eq 3.
	nbrParts := float64(len(sc.touched))

	bestPart := int32(0)
	bestVal := math.Inf(-1)
	for i := 0; i < p; i++ {
		// T_i(v) = Σ_j X_j(v)·C(i,j); C(i,i)=0 removes the self term.
		t := 0.0
		ci := cost[i]
		for _, j := range sc.touched {
			t += sc.xCounts[j] * ci[j]
		}
		// N_i(v): neighbour partitions other than i, normalised by p.
		ni := nbrParts
		if sc.pstamp[i] == sc.epoch {
			ni-- // v has neighbours in i itself; those don't count
		}
		ni /= float64(p)

		val := -ni*t - alpha*float64(pr.loads[i])/expected[i]
		if pr.cfg.MigrationPenalty > 0 && int32(i) != pr.parts[v] {
			val -= pr.cfg.MigrationPenalty * float64(h.VertexWeight(v))
		}
		if val > bestVal || (val == bestVal && int32(i) == pr.parts[v]) {
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
// score more candidates than necessary, never prune a winner. One helper
// serves the serial pickers and their parallel-worker twins.
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
func (pr *Partitioner) pickUniform(v int, alpha float64, expected []float64) int32 {
	sc := pr.sc
	c := pr.cidx.uniformC
	p := float64(pr.p)
	nbrParts := float64(len(sc.touched))
	cur := pr.parts[v]
	penalty := 0.0
	if pr.cfg.MigrationPenalty > 0 {
		penalty = pr.cfg.MigrationPenalty * float64(pr.h.VertexWeight(v))
	}
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
		val := -niT*t - alpha*float64(pr.loads[i])/expected[i]
		if penalty > 0 && i != cur {
			val -= penalty
		}
		considerCandidate(&bestVal, &bestPart, i, cur, val)
	}
	if e, ok := sc.minIdx.popBestUntouched(pr.untouchedFn); ok {
		val := -niU*tU - alpha*float64(pr.loads[e.idx])/expected[e.idx]
		if penalty > 0 && e.idx != cur {
			val -= penalty
		}
		considerCandidate(&bestVal, &bestPart, e.idx, cur, val)
	}
	sc.minIdx.restore()
	curTouched := sc.pstamp[cur] == sc.epoch
	if !curTouched {
		val := -niU*tU - alpha*float64(pr.loads[cur])/expected[cur]
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
			alpha*float64(pr.loads[i])/expected[i], penalty, bestVal) {
			pr.tally.TouchedPruned++
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
func (pr *Partitioner) pickBounded(v int, alpha float64, expected []float64) (best int32, pops int) {
	sc := pr.sc
	cost := pr.cfg.CostMatrix
	p := float64(pr.p)
	nbrParts := float64(len(sc.touched))
	cur := pr.parts[v]
	penalty := 0.0
	if pr.cfg.MigrationPenalty > 0 {
		penalty = pr.cfg.MigrationPenalty * float64(pr.h.VertexWeight(v))
	}
	// Σ_j X_j(v): any candidate's communication term is ≥ minOff times this.
	sumX := 0.0
	for _, j := range sc.touched {
		sumX += sc.xCounts[j]
	}
	loS := pr.cidx.minOff * sumX
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
		val := -ni*t - alpha*float64(pr.loads[i])/expected[i]
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
	budget := boundedPopBudget(pr.p)
	for ; budget > 0; budget-- {
		e, ok := sc.minIdx.popBestUntouched(pr.untouchedFn)
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
		pr.tally.ExhaustiveFallbacks++
		return pr.pickExhaustive(v, alpha, expected), pops
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
func (pr *Partitioner) pickBlocked(v int, alpha float64, expected []float64) (best int32, work int) {
	sc := pr.sc
	ci := pr.cidx
	cost := pr.cfg.CostMatrix
	p := float64(pr.p)
	nbrParts := float64(len(sc.touched))
	cur := pr.parts[v]
	epoch := sc.epoch
	penalty := 0.0
	if pr.cfg.MigrationPenalty > 0 {
		penalty = pr.cfg.MigrationPenalty * float64(pr.h.VertexWeight(v))
	}
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
		val := -ni*t - alpha*float64(pr.loads[i])/expected[i]
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
			pr.refreshBlockMin(int32(b), expected)
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
		} else if i, _, ok := pr.minAvailableInBlock(champ, expected); ok {
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
				alpha*float64(pr.loads[i])/expected[i], penalty, bestVal) {
			pr.tally.TouchedPruned++
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
			pr.tally.BlockRejections++
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
				i, q, ok = pr.minAvailableInBlock(b, expected)
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
				pr.tally.ExactSettles++
				break
			}
		}
	}
	return bestPart, work
}

// refreshBlockMin recomputes block b's cached (min load, argmin) from the
// live loads.
func (pr *Partitioner) refreshBlockMin(b int32, expected []float64) {
	sc := pr.sc
	bq, bi := math.Inf(1), int32(-1)
	for _, i := range pr.cidx.blocks[b].members {
		if q := float64(pr.loads[i]) / expected[i]; q < bq {
			bq, bi = q, i
		}
	}
	sc.blockMinQ[b], sc.blockMinIdx[b] = bq, bi
	sc.blockStale[b] = false
}

// minAvailableInBlock returns block b's least-loaded member (ties to the
// lowest index) that is neither touched nor already scored for the
// current vertex; ok is false when every member is spoken for.
func (pr *Partitioner) minAvailableInBlock(b int32, expected []float64) (idx int32, q float64, ok bool) {
	sc := pr.sc
	epoch := sc.epoch
	bq, bi := math.Inf(1), int32(-1)
	for _, i := range pr.cidx.blocks[b].members {
		if sc.pstamp[i] == epoch || sc.sstamp[i] == epoch {
			continue
		}
		if qi := float64(pr.loads[i]) / expected[i]; qi < bq {
			bq, bi = qi, i
		}
	}
	if bi < 0 {
		return 0, 0, false
	}
	return bi, bq, true
}

// markDirty stamps v and every neighbour of v as frontier members for pass
// `next`: a vertex must be re-streamed iff it or a neighbour moved. The
// stamp is checked before the store: vertices on hot hyperedges are marked
// once per moving neighbour, and skipping the redundant stores keeps their
// cache lines clean instead of re-dirtying them on every mark.
func (pr *Partitioner) markDirty(v int, next int32) {
	h := pr.h
	dirty := pr.sc.dirty
	dirty[v] = next
	for _, e := range h.IncidentEdges(v) {
		for _, u := range h.Pins(int(e)) {
			if dirty[u] != next {
				dirty[u] = next
			}
		}
	}
}

// gatherNeighbourCounts fills xCounts/touched with X_j(v) against the live
// assignment (see scratch.gather). Epoch wraparound (after 2^31−2 gathers,
// e.g. a pooled scratch serving jobs for days) is handled by
// scratch.bumpEpoch, which zeroes the stamps and restarts the epoch at 1.
func (pr *Partitioner) gatherNeighbourCounts(v int) {
	pr.sc.gather(pr.h, pr.parts, v, pr.cfg.UseEdgeWeights)
}

// Partition is the one-call convenience wrapper: configure, run, return the
// partition vector.
func Partition(h *hypergraph.Hypergraph, cfg Config) ([]int32, error) {
	pr, err := New(h, cfg)
	if err != nil {
		return nil, err
	}
	defer pr.Release()
	return pr.Run().Parts, nil
}
