package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"hyperpraw/internal/hgen"
	"hyperpraw/internal/hypergraph"
	"hyperpraw/internal/metrics"
	"hyperpraw/internal/profile"
	"hyperpraw/internal/stats"
	"hyperpraw/internal/topology"
)

// randomHG builds a randomized hypergraph with random edge weights and (for
// half the seeds) random vertex weights, exercising inputs the generator
// catalog does not produce.
func randomHG(seed uint64, nv, ne, maxCard int) *hypergraph.Hypergraph {
	rng := stats.NewRNG(seed)
	b := hypergraph.NewBuilder(nv)
	for e := 0; e < ne; e++ {
		card := 2 + rng.Intn(maxCard-1)
		pins := make(map[int]bool, card)
		for len(pins) < card {
			pins[rng.Intn(nv)] = true
		}
		flat := make([]int, 0, card)
		for v := range pins {
			flat = append(flat, v)
		}
		sort.Ints(flat)
		b.AddWeightedEdge(int64(1+rng.Intn(5)), flat...)
	}
	if seed%2 == 0 {
		for v := 0; v < nv; v++ {
			b.SetVertexWeight(v, int64(1+rng.Intn(4)))
		}
	}
	return b.Build()
}

// physCost returns a profiled (non-uniform) cost matrix for p partitions.
func physCost(p int, seed uint64) [][]float64 {
	m := topology.MustNew(topology.Archer(), p, seed)
	return profile.CostMatrix(profile.RingProfile(m, profile.DefaultConfig()))
}

// tierCost builds a noiseless hierarchical cost matrix in the MachineSpec
// mould: sizes lists the unit sizes innermost-first (e.g. {8, 64} = 8-core
// sockets inside 64-core nodes) and costs the per-tier communication cost,
// one per size plus the beyond-outermost tier. Values repeat exactly, so
// candidate scores tie across tiers — the regime the tie-break proofs of
// the fast scans must survive — and the cost index detects exact blocks.
func tierCost(p int, sizes []int, costs []float64) [][]float64 {
	c := make([][]float64, p)
	for i := range c {
		c[i] = make([]float64, p)
		for j := range c[i] {
			if i == j {
				continue
			}
			lvl := len(sizes)
			for l, s := range sizes {
				if i/s == j/s {
					lvl = l
					break
				}
			}
			if lvl >= len(costs) {
				lvl = len(costs) - 1
			}
			c[i][j] = costs[lvl]
		}
	}
	return c
}

// hier2Cost and hier3Cost are the hierarchical benchmark matrices: a
// two-tier machine (8-partition blocks, cheap inside, dear outside) and a
// three-tier one (8-partition sockets in 64-partition nodes; 32 at p=64
// so all three tiers exist).
func hier2Cost(p int) [][]float64 {
	return tierCost(p, []int{8}, []float64{1, 2})
}

func hier3Cost(p int) [][]float64 {
	node := 64
	if p < 256 {
		node = 32
	}
	return tierCost(p, []int{8, node}, []float64{1, 1.5, 2})
}

// runPair runs the same configuration with the touched-only scan and with
// the exhaustive reference, both with full history, and returns the two
// results.
func runPair(t *testing.T, h *hypergraph.Hypergraph, cfg Config) (fast, ref Result) {
	t.Helper()
	cfg.RecordHistory = true
	cfg.forceExhaustive = false
	cfg.forceTouchedOnly = true // exercise the fast paths even at small p
	prFast, err := New(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer prFast.Release()
	fast = prFast.Run()

	cfg.forceExhaustive = true
	prRef, err := New(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer prRef.Release()
	ref = prRef.Run()
	return fast, ref
}

// assertIdentical demands move-for-move equivalence: same iteration count,
// same number of moves in every stream, and an identical final assignment.
func assertIdentical(t *testing.T, label string, fast, ref Result) {
	t.Helper()
	if fast.Iterations != ref.Iterations || fast.Stopped != ref.Stopped {
		t.Fatalf("%s: fast ran %d iterations (%v), exhaustive %d (%v)",
			label, fast.Iterations, fast.Stopped, ref.Iterations, ref.Stopped)
	}
	for i := range ref.History {
		if fast.History[i].Moves != ref.History[i].Moves {
			t.Fatalf("%s: iteration %d: fast moved %d vertices, exhaustive %d",
				label, i+1, fast.History[i].Moves, ref.History[i].Moves)
		}
	}
	for v := range ref.Parts {
		if fast.Parts[v] != ref.Parts[v] {
			t.Fatalf("%s: vertex %d: fast → %d, exhaustive → %d",
				label, v, fast.Parts[v], ref.Parts[v])
		}
	}
	if fast.FinalCommCost != ref.FinalCommCost {
		t.Fatalf("%s: final cost %g vs %g", label, fast.FinalCommCost, ref.FinalCommCost)
	}
}

// TestTouchedOnlyMatchesExhaustive is the kernel-equivalence property test:
// across randomized instances, partition counts, uniform and profiled cost
// matrices, and both neighbour-count modes, the touched-only scan must pick
// the same partition as the O(p) loop for every vertex of every stream.
func TestTouchedOnlyMatchesExhaustive(t *testing.T) {
	for _, p := range []int{3, 8, 32} {
		for seed := uint64(1); seed <= 4; seed++ {
			for _, weighted := range []bool{false, true} {
				for _, phys := range []bool{false, true} {
					label := fmt.Sprintf("p=%d/seed=%d/edgeweights=%v/phys=%v", p, seed, weighted, phys)
					h := randomHG(seed, 300, 400, 8)
					var cost [][]float64
					if phys {
						cost = physCost(p, seed)
					} else {
						cost = profile.UniformCost(p)
					}
					cfg := DefaultConfig(cost)
					cfg.MaxIterations = 30
					cfg.UseEdgeWeights = weighted
					fast, ref := runPair(t, h, cfg)
					assertIdentical(t, label, fast, ref)
				}
			}
		}
	}
}

// TestTieredMatchesExhaustiveHierarchical is the parity property test for
// the blocked (cost-tier) scan on the matrices it was built for: exact
// 2- and 3-tier machine profiles, whose repeated values make candidate
// scores tie exactly within and across tiers — the regime where a scan
// that skips candidates must reproduce the exhaustive tie-break to the
// index.
func TestTieredMatchesExhaustiveHierarchical(t *testing.T) {
	for _, p := range []int{8, 32, 64} {
		for _, tiers := range []int{2, 3} {
			for seed := uint64(1); seed <= 3; seed++ {
				for _, weighted := range []bool{false, true} {
					label := fmt.Sprintf("p=%d/tiers=%d/seed=%d/edgeweights=%v", p, tiers, seed, weighted)
					h := randomHG(seed, 300, 400, 8)
					var cost [][]float64
					if tiers == 2 {
						cost = tierCost(p, []int{4}, []float64{1, 2})
					} else {
						cost = tierCost(p, []int{4, 16}, []float64{1, 1.5, 2})
					}
					cfg := DefaultConfig(cost)
					cfg.MaxIterations = 30
					cfg.UseEdgeWeights = weighted
					fast, ref := runPair(t, h, cfg)
					assertIdentical(t, label, fast, ref)
				}
			}
		}
	}
}

// TestTieredMatchesExhaustiveFewDistinct drives matrices that have few
// distinct values but no block structure (each entry drawn at random from
// a three-value set, symmetrised): the index must classify them as
// unstructured and the legacy pruned scan must stay move-for-move exact
// through the massive cross-candidate ties.
func TestTieredMatchesExhaustiveFewDistinct(t *testing.T) {
	vals := []float64{1, 1.5, 2}
	for _, p := range []int{8, 24} {
		for seed := uint64(1); seed <= 3; seed++ {
			rng := stats.NewRNG(seed ^ 0xfd)
			cost := make([][]float64, p)
			for i := range cost {
				cost[i] = make([]float64, p)
			}
			for i := 0; i < p; i++ {
				for j := i + 1; j < p; j++ {
					v := vals[rng.Intn(len(vals))]
					cost[i][j], cost[j][i] = v, v
				}
			}
			h := randomHG(seed, 300, 400, 8)
			cfg := DefaultConfig(cost)
			cfg.MaxIterations = 30
			fast, ref := runPair(t, h, cfg)
			assertIdentical(t, fmt.Sprintf("p=%d/seed=%d", p, seed), fast, ref)
		}
	}
}

// runPairParallel is runPair for the parallel kernel pinned to one worker,
// where the per-worker caches are exact and the variant is deterministic:
// the fast scans must match the parallel exhaustive reference move for
// move there too.
func runPairParallel(t *testing.T, h *hypergraph.Hypergraph, cfg Config) (fast, ref Result) {
	t.Helper()
	cfg.RecordHistory = true
	cfg.forceExhaustive = false
	cfg.forceTouchedOnly = true
	fast, err := PartitionParallel(h, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.forceTouchedOnly = false
	cfg.forceExhaustive = true
	ref, err = PartitionParallel(h, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	return fast, ref
}

// TestTieredMatchesExhaustiveParallel asserts single-worker parallel
// parity across the cost-structure strategies: hierarchical exact tiers
// (blocked scan), the profiled Archer matrix (blocked, inexact), and
// uniform (heap scan).
func TestTieredMatchesExhaustiveParallel(t *testing.T) {
	h := randomHG(2, 400, 500, 8)
	for _, tc := range []struct {
		label string
		cost  [][]float64
	}{
		{"hier2", tierCost(16, []int{4}, []float64{1, 2})},
		{"hier3", tierCost(32, []int{4, 16}, []float64{1, 1.5, 2})},
		{"profiled", physCost(16, 1)},
		{"uniform", profile.UniformCost(16)},
	} {
		cfg := DefaultConfig(tc.cost)
		cfg.MaxIterations = 25
		fast, ref := runPairParallel(t, h, cfg)
		assertIdentical(t, tc.label, fast, ref)
	}
}

// TestParallelSingleWorkerMatchesSerialRun is the single-worker parity
// property test of the block-aligned parallel kernel: with one worker the
// visit order is the natural order, the load view is exact at every visit,
// and the driver loop mirrors Run — so PartitionParallel must reproduce the
// serial result move for move (same iteration counts, per-pass move counts,
// final assignment, and final cost) across every scan strategy, frontier
// restreaming, capacities, and a seeded initial assignment. Both drivers
// run the same kernel, so their StreamStats counters must agree too.
func TestParallelSingleWorkerMatchesSerialRun(t *testing.T) {
	h := randomHG(7, 400, 500, 8)
	p := 16
	initial := make([]int32, h.NumVertices())
	for v := range initial {
		initial[v] = int32((v * 5) % p)
	}
	caps := make([]float64, p)
	rng := stats.NewRNG(13)
	for i := range caps {
		caps[i] = 0.5 + 2*rng.Float64()
	}
	for _, tc := range []struct {
		label string
		mut   func(*Config)
		cost  [][]float64
	}{
		{"hier2", nil, hier2Cost(p)},
		{"hier3", nil, hier3Cost(32)},
		{"profiled", nil, physCost(p, 4)},
		{"uniform", nil, profile.UniformCost(p)},
		{"frontier", func(c *Config) { c.FrontierRestreaming = true }, hier2Cost(p)},
		{"initialparts", func(c *Config) { c.InitialParts = initial }, profile.UniformCost(p)},
		{"capacities", func(c *Config) { c.Capacities = caps }, hier2Cost(p)},
	} {
		cfg := DefaultConfig(tc.cost)
		cfg.MaxIterations = 25
		cfg.RecordHistory = true
		cfg.forceTouchedOnly = true // exercise the fast paths at small p
		if tc.mut != nil {
			tc.mut(&cfg)
		}
		var serialStats, parStats StreamStats
		cfg.Stats = &serialStats
		pr, err := New(h, cfg)
		if err != nil {
			t.Fatal(err)
		}
		serial := pr.Run()
		pr.Release()
		cfg.Stats = &parStats
		par, err := PartitionParallel(h, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, tc.label, par, serial)
		if parStats != serialStats {
			t.Fatalf("%s: w=1 counters %+v, serial %+v", tc.label, parStats, serialStats)
		}
	}
}

// TestParallelMultiWorkerQualityHier bounds the quality cost of the GraSP
// staleness relaxation under block-aligned ownership: on the hierarchical
// fixtures, a 4-worker run must stay close to the serial cut and respect
// the balance tolerance.
func TestParallelMultiWorkerQualityHier(t *testing.T) {
	h := randomHG(9, 1500, 2200, 8)
	for _, tc := range []struct {
		label string
		cost  [][]float64
	}{
		{"hier2", hier2Cost(64)},
		{"hier3", hier3Cost(64)},
	} {
		cfg := DefaultConfig(tc.cost)
		cfg.MaxIterations = 40
		pr, err := New(h, cfg)
		if err != nil {
			t.Fatal(err)
		}
		serial := pr.Run()
		pr.Release()
		par, err := PartitionParallel(h, cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := metrics.ValidatePartition(h, par.Parts, 64); err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		if par.FinalCommCost > serial.FinalCommCost*1.35 {
			t.Fatalf("%s: parallel PC %g much worse than serial %g",
				tc.label, par.FinalCommCost, serial.FinalCommCost)
		}
		if par.FinalImbalance > cfg.ImbalanceTolerance*1.2 {
			t.Fatalf("%s: parallel imbalance %g", tc.label, par.FinalImbalance)
		}
	}
}

// TestTouchedOnlyMatchesExhaustiveVariants covers the config corners the
// main property test fixes: shuffled order, heterogeneous capacities, and
// repartitioning with a migration penalty.
func TestTouchedOnlyMatchesExhaustiveVariants(t *testing.T) {
	h := randomHG(6, 400, 500, 10)
	p := 16

	shuffled := DefaultConfig(profile.UniformCost(p))
	shuffled.MaxIterations = 20
	shuffled.ShuffledOrder = true
	shuffled.Seed = 11

	caps := DefaultConfig(physCost(p, 2))
	caps.MaxIterations = 20
	caps.Capacities = make([]float64, p)
	rng := stats.NewRNG(9)
	for i := range caps.Capacities {
		caps.Capacities[i] = 0.5 + 2*rng.Float64()
	}

	initial := make([]int32, h.NumVertices())
	for v := range initial {
		initial[v] = int32((v * 7) % p)
	}
	repart := DefaultConfig(profile.UniformCost(p))
	repart.MaxIterations = 20
	repart.InitialParts = initial
	repart.MigrationPenalty = 0.5

	for label, cfg := range map[string]Config{
		"shuffled": shuffled, "capacities": caps, "repartition": repart,
	} {
		fast, ref := runPair(t, h, cfg)
		assertIdentical(t, label, fast, ref)
	}
}

// TestTouchedOnlyMatchesExhaustiveCatalog pins the acceptance criterion that
// Table 1 catalog cut quality is unchanged: on catalog instances the
// touched-only scan must reproduce the exhaustive partition exactly (a 0%
// delta, well within the 1% budget).
func TestTouchedOnlyMatchesExhaustiveCatalog(t *testing.T) {
	for _, name := range []string{"2cubes_sphere", "sparsine"} {
		spec, ok := hgen.SpecByName(name)
		if !ok {
			t.Fatalf("unknown catalog instance %q", name)
		}
		h := hgen.Generate(spec.Scaled(0.01), 1)
		for _, phys := range []bool{false, true} {
			p := 32
			var cost [][]float64
			if phys {
				cost = physCost(p, 1)
			} else {
				cost = profile.UniformCost(p)
			}
			cfg := DefaultConfig(cost)
			cfg.MaxIterations = 25
			fast, ref := runPair(t, h, cfg)
			assertIdentical(t, fmt.Sprintf("%s/phys=%v", name, phys), fast, ref)
		}
	}
}

// TestFrontierRestreamingConverges checks the frontier mode acceptance
// criterion: streaming only the dirty frontier (with periodic full sweeps)
// must land within tolerance of full restreaming — a valid partition, the
// imbalance constraint met, and a final communication cost within 10%.
func TestFrontierRestreamingConverges(t *testing.T) {
	for _, phys := range []bool{false, true} {
		h := randomHG(3, 500, 700, 8)
		p := 16
		var cost [][]float64
		if phys {
			cost = physCost(p, 3)
		} else {
			cost = profile.UniformCost(p)
		}
		cfg := DefaultConfig(cost)
		cfg.MaxIterations = 60

		full, err := Partition(h, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.FrontierRestreaming = true
		pr, err := New(h, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer pr.Release()
		res := pr.Run()

		if err := metrics.ValidatePartition(h, res.Parts, p); err != nil {
			t.Fatalf("phys=%v: %v", phys, err)
		}
		if res.FinalImbalance > cfg.ImbalanceTolerance*1.001 {
			t.Fatalf("phys=%v: frontier imbalance %g exceeds tolerance %g",
				phys, res.FinalImbalance, cfg.ImbalanceTolerance)
		}
		fullCost := metrics.CommCost(h, full, cost)
		frontierCost := metrics.CommCost(h, res.Parts, cost)
		if frontierCost > fullCost*1.10 {
			t.Fatalf("phys=%v: frontier cost %g vs full %g (>10%% worse)",
				phys, frontierCost, fullCost)
		}
	}
}

// TestFrontierDeterministicAcrossPool guards the pooled-scratch contract:
// frontier runs must not depend on what a recycled scratch streamed before.
func TestFrontierDeterministicAcrossPool(t *testing.T) {
	h := randomHG(5, 300, 400, 6)
	cfg := DefaultConfig(profile.UniformCost(8))
	cfg.MaxIterations = 40
	cfg.FrontierRestreaming = true

	run := func() []int32 {
		pr, err := New(h, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer pr.Release()
		return pr.Run().Parts
	}
	first := run()
	// Pollute the pool with a run over a different (larger) instance, then
	// repeat: the recycled dirty stamps and epochs must not leak through.
	other := randomHG(8, 900, 1200, 6)
	if _, err := Partition(other, cfg); err != nil {
		t.Fatal(err)
	}
	second := run()
	for v := range first {
		if first[v] != second[v] {
			t.Fatalf("vertex %d: %d then %d after pool reuse", v, first[v], second[v])
		}
	}
}

// TestEpochWraparoundReset covers gatherNeighbourCounts' wraparound path: at
// epoch MaxInt32−1 the next gather must zero every stamp, restart the epoch
// at 1, and still produce the exact neighbour counts — including on the
// gather immediately after the reset.
func TestEpochWraparoundReset(t *testing.T) {
	h := randomHG(4, 120, 160, 6)
	cfg := DefaultConfig(profile.UniformCost(6))

	gatherCounts := func(pr *Partitioner, v int) map[int32]float64 {
		pr.gatherNeighbourCounts(v)
		out := make(map[int32]float64, len(pr.sc.touched))
		for _, j := range pr.sc.touched {
			out[j] = pr.sc.xCounts[j]
		}
		return out
	}

	pr, err := New(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Release()
	pr.resetAssignment()
	// Dirty the stamps with a few ordinary gathers first.
	for v := 0; v < 10; v++ {
		pr.gatherNeighbourCounts(v)
	}
	pr.sc.epoch = math.MaxInt32 - 1

	ref, err := New(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Release()
	ref.resetAssignment()

	for _, v := range []int{7, 8} { // wrap gather, then first post-wrap gather
		got := gatherCounts(pr, v)
		want := gatherCounts(ref, v)
		if len(got) != len(want) {
			t.Fatalf("vertex %d: touched %d partitions, want %d", v, len(got), len(want))
		}
		for j, x := range want {
			if got[j] != x {
				t.Fatalf("vertex %d: X_%d = %g, want %g", v, j, got[j], x)
			}
		}
	}
	if pr.sc.epoch >= math.MaxInt32-1 || pr.sc.epoch < 1 {
		t.Fatalf("epoch %d after wraparound, want a small positive value", pr.sc.epoch)
	}
	for i, s := range pr.sc.vstamp {
		if s > pr.sc.epoch {
			t.Fatalf("vstamp[%d] = %d survived the wraparound reset (epoch %d)", i, s, pr.sc.epoch)
		}
	}
}
