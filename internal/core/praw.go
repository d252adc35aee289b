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

// frontierFullSweepEvery is the cadence of corrective full sweeps in
// frontier mode: after this many consecutive frontier passes, one pass
// streams every vertex again so drift in α and the loads reaches vertices
// the frontier never revisited.
const frontierFullSweepEvery = 8

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
	kernel
	cfg Config

	parts  []int32 // aliases sc.parts
	totalW int64

	// rng drives the shuffled stream order (ShuffledOrder only).
	rng splitMix
}

// New validates the configuration and prepares a Partitioner.
func New(h *hypergraph.Hypergraph, cfg Config) (*Partitioner, error) {
	cfg, cidx, err := prepare(h, cfg)
	if err != nil {
		return nil, err
	}
	nv, p := h.NumVertices(), len(cfg.CostMatrix)
	sc := acquireScratch(nv, p)
	sc.parts = growI32(sc.parts, nv)
	sc.pairs.size(p)
	pr := &Partitioner{cfg: cfg, parts: sc.parts}
	pr.setup(h, &pr.cfg, cidx, sc)
	return pr, nil
}

// prepare validates cfg against h, defaults α, and resolves the cost-tier
// index: taken from Config.Index when it matches the matrix, built
// otherwise. New and PartitionParallel share it.
func prepare(h *hypergraph.Hypergraph, cfg Config) (Config, *CostIndex, error) {
	p := len(cfg.CostMatrix)
	if p == 0 {
		return cfg, nil, fmt.Errorf("core: empty cost matrix")
	}
	for i, row := range cfg.CostMatrix {
		if len(row) != p {
			return cfg, nil, fmt.Errorf("core: cost matrix row %d has %d entries, want %d", i, len(row), p)
		}
		if row[i] != 0 {
			return cfg, nil, fmt.Errorf("core: cost matrix diagonal must be zero (row %d is %g)", i, row[i])
		}
	}
	if cfg.ImbalanceTolerance <= 1 {
		return cfg, nil, fmt.Errorf("core: imbalance tolerance must exceed 1, got %g", cfg.ImbalanceTolerance)
	}
	if cfg.MaxIterations <= 0 {
		return cfg, nil, fmt.Errorf("core: max iterations must be positive, got %d", cfg.MaxIterations)
	}
	if cfg.TemperFactor <= 0 {
		return cfg, nil, fmt.Errorf("core: temper factor must be positive, got %g", cfg.TemperFactor)
	}
	if cfg.RefinementPolicy == RefineUntilNoImprovement && cfg.RefinementFactor <= 0 {
		return cfg, nil, fmt.Errorf("core: refinement factor must be positive, got %g", cfg.RefinementFactor)
	}
	if cfg.Capacities != nil {
		if len(cfg.Capacities) != p {
			return cfg, nil, fmt.Errorf("core: %d capacities for %d partitions", len(cfg.Capacities), p)
		}
		for i, c := range cfg.Capacities {
			if c <= 0 {
				return cfg, nil, fmt.Errorf("core: capacity %d is non-positive (%g)", i, c)
			}
		}
	}
	if cfg.InitialParts != nil {
		if len(cfg.InitialParts) != h.NumVertices() {
			return cfg, nil, fmt.Errorf("core: initial partition length %d, want %d", len(cfg.InitialParts), h.NumVertices())
		}
		for v, q := range cfg.InitialParts {
			if q < 0 || int(q) >= p {
				return cfg, nil, fmt.Errorf("core: initial partition assigns vertex %d to %d, want [0,%d)", v, q, p)
			}
		}
	}
	if cfg.MigrationPenalty < 0 {
		return cfg, nil, fmt.Errorf("core: negative migration penalty %g", cfg.MigrationPenalty)
	}
	if cfg.Alpha0 == 0 {
		cfg.Alpha0 = FennelAlpha(p, h.NumEdges(), h.NumVertices())
	}
	cidx := cfg.Index
	if !cidx.matches(cfg.CostMatrix) {
		cidx = BuildCostIndex(cfg.CostMatrix)
	}
	return cfg, cidx, nil
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
	pr.expectedLoads() // fills sc.expected, which every superstep reads
	if pr.cfg.ShuffledOrder {
		pr.sc.order = growI32(pr.sc.order, nv)
		for i := range pr.sc.order {
			pr.sc.order[i] = int32(i)
		}
		pr.rng = splitMix{state: pr.cfg.Seed ^ 0x5eed}
	}
	if pr.cfg.FrontierRestreaming {
		// Fresh stamps per run keep frontier runs deterministic no matter
		// what a pooled scratch streamed before.
		pr.sc.dirty = growI32(pr.sc.dirty, nv)
		for i := range pr.sc.dirty {
			pr.sc.dirty[i] = 0
		}
	}
	return restream(pr.h, &pr.cfg, pr)
}

// superstep is one serial pass of the driver loop: shuffle the visiting
// order when asked, stream, then measure the imbalance and PC(P).
func (pr *Partitioner) superstep(n int, alpha float64, frontier bool) (moves int, imb, cost float64) {
	var order []int32
	if pr.cfg.ShuffledOrder {
		order = pr.sc.order
		pr.rng.shuffle(order)
	}
	expected := pr.sc.expected
	moves = pr.stream(alpha, expected, order, n, frontier)
	return moves, imbalanceFor(pr.cfg.Capacities, pr.loads, expected), pr.commCost()
}

// assignment is the live assignment the stream updates in place.
func (pr *Partitioner) assignment() []int32 { return pr.parts }

// restreamer is one driver's side of Algorithm 1's outer loop (restream):
// the serial Partitioner, whose superstep shuffles and streams, or a
// parallelRun, whose superstep dispatches the stream and the barrier
// reductions to its workers.
type restreamer interface {
	// superstep streams pass n and returns its move count together with
	// the end-of-pass imbalance and PC(P).
	superstep(n int, alpha float64, frontier bool) (moves int, imb, cost float64)
	// assignment is the current assignment and commCost its PC(P).
	assignment() []int32
	commCost() float64
	// bestBuffer returns a vertex-sized buffer for the best partition.
	bestBuffer() []int32
	// takeTally returns the kernel counters and clears them.
	takeTally() StreamStats
}

// restream runs Algorithm 1's outer loop over r: α tempering while the
// imbalance exceeds the tolerance, then the refinement phase, which tracks
// the best in-tolerance partition and stops once PC(P) has failed to
// improve for Patience consecutive streams. It polls Config.Stop, records
// History, calls Progress, and flushes the kernel counters into
// Config.Stats.
func restream(h *hypergraph.Hypergraph, cfg *Config, r restreamer) Result {
	alpha := cfg.Alpha0
	patience := cfg.Patience
	if patience <= 0 {
		patience = 1
	}
	res := Result{Stopped: StoppedMaxIterations}
	// bestParts is the lowest-cost in-tolerance partition seen so far; it is
	// what a stop in the refinement phase returns (the paper's "return
	// P^{n-1}" generalised to patience > 1). Only the refinement policy
	// needs it.
	var bestParts []int32
	if cfg.RefinementPolicy == RefineUntilNoImprovement {
		bestParts = r.bestBuffer()
	}
	bestCost := math.Inf(1)
	haveBest := false
	badStreak := 0

	lastInTol := false
	consecFrontier := 0
	var frontierPasses int64
	for n := 1; n <= cfg.MaxIterations; n++ {
		if cfg.Stop != nil && cfg.Stop() {
			res.Stopped = StoppedCanceled
			break
		}
		frontier := cfg.FrontierRestreaming && n > 1 && lastInTol &&
			consecFrontier+1 < frontierFullSweepEvery
		if frontier {
			consecFrontier++
			frontierPasses++
		} else {
			consecFrontier = 0
		}
		moves, imb, cost := r.superstep(n, alpha, frontier)
		res.Iterations = n
		inTol := imb <= cfg.ImbalanceTolerance
		lastInTol = inTol

		st := IterationStats{
			Iteration:   n,
			CommCost:    cost,
			Imbalance:   imb,
			Alpha:       alpha,
			Moves:       moves,
			InTolerance: inTol,
		}
		if cfg.RecordHistory {
			res.History = append(res.History, st)
		}
		if cfg.Progress != nil {
			cfg.Progress(st)
		}

		if !inTol {
			// Outside tolerance: keep tempering up.
			alpha *= cfg.TemperFactor
			continue
		}

		if cfg.RefinementPolicy == StopAtTolerance {
			res.Stopped = StoppedAtTolerance
			break
		}

		// Refinement phase: track the best in-tolerance partition and stop
		// once the monitored metric has failed to improve for `patience`
		// consecutive streams.
		if !haveBest || cost < bestCost {
			bestCost = cost
			copy(bestParts, r.assignment())
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

	// PC(P) depends only on the partition, so the best partition's cost is
	// the value recorded when it was saved; a run stopped before its first
	// pass reports the initial assignment's.
	final := r.assignment()
	if haveBest {
		final = bestParts
		res.FinalCommCost = bestCost
	} else {
		res.FinalCommCost = r.commCost()
	}
	res.Parts = append([]int32(nil), final...)
	res.FinalImbalance = metrics.Imbalance(metrics.Loads(h, res.Parts, len(cfg.CostMatrix)))
	if cfg.Stats != nil {
		t := r.takeTally()
		t.Passes += int64(res.Iterations)
		t.FrontierPasses += frontierPasses
		cfg.Stats.Add(t)
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

// expectedLoads fills and returns the scratch's E(i) vector.
func (pr *Partitioner) expectedLoads() []float64 {
	return expectedLoadsFor(pr.sc.expected, pr.cfg.Capacities, pr.totalW)
}

// expectedLoadsFor fills expected with E(i) per partition: totalW/p for
// homogeneous machines, or proportional to the capacities caps.
func expectedLoadsFor(expected, caps []float64, totalW int64) []float64 {
	if caps == nil {
		e := float64(totalW) / float64(len(expected))
		if e == 0 {
			e = 1
		}
		for i := range expected {
			expected[i] = e
		}
		return expected
	}
	var capTotal float64
	for _, c := range caps {
		capTotal += c
	}
	for i, c := range caps {
		e := float64(totalW) * c / capTotal
		if e <= 0 {
			e = 1
		}
		expected[i] = e
	}
	return expected
}

// imbalanceFor returns the workload imbalance of loads: the paper's
// max/mean ratio for homogeneous partitions, or max_i W(i)/E(i) under
// heterogeneous capacities caps.
func imbalanceFor(caps []float64, loads []int64, expected []float64) float64 {
	if caps == nil {
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

// commCost is the refinement-phase quality metric: PC(P) with the
// algorithm's own cost matrix, hyperedge-weighted when UseEdgeWeights,
// evaluated from the pair counts the stream keeps current (see
// pairCounts.cost).
func (pr *Partitioner) commCost() float64 {
	return pr.sc.pairs.cost(pr.cost)
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

// stream performs one pass, reassigning each visited vertex greedily with
// the kernel's pick, and returns the number of vertices that moved. order,
// when non-nil, gives the visiting sequence; nil means natural order. pass
// is the 1-based iteration number; when frontierOnly is set, only vertices
// whose dirty stamp matches this pass (they or a neighbour moved last pass)
// are visited.
func (pr *Partitioner) stream(alpha float64, expected []float64, order []int32, pass int, frontierOnly bool) int {
	h := pr.h
	sc := pr.sc
	nv := h.NumVertices()
	moves := 0
	var visited int64

	pr.beginStream(alpha, expected)
	mark := pr.cfg.FrontierRestreaming
	next := int32(pass) + 1
	migration := pr.cfg.MigrationPenalty
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

		cur := pr.parts[v]
		penalty := 0.0
		if migration > 0 {
			penalty = migration * float64(h.VertexWeight(v))
		}
		if best := pr.pick(cur, penalty, alpha, expected); best != cur {
			pr.parts[v] = best
			sc.movePairs(cur, best)
			pr.noteMove(cur, best, h.VertexWeight(v), expected)
			if mark {
				pr.markDirty(v, next)
			}
			moves++
		}
	}
	pr.tally.Moves += int64(moves)
	pr.tally.FrontierVisited += visited
	return moves
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
