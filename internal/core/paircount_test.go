package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"hyperpraw/internal/hypergraph"
	"hyperpraw/internal/metrics"
	"hyperpraw/internal/profile"
	"hyperpraw/internal/stats"
)

// naivePairs recounts the neighbour-pair matrix of parts straight from the
// definition, independently of the kernel's gather: pairs[a·p+j] sums, over
// vertices v in partition a, their distinct neighbours in partition j — or,
// weighted, w(e) for every (incident edge e, other pin u in j).
func naivePairs(h *hypergraph.Hypergraph, parts []int32, p int, weighted bool) []int64 {
	pairs := make([]int64, p*p)
	for v := 0; v < h.NumVertices(); v++ {
		row := pairs[int(parts[v])*p:]
		seen := map[int32]bool{}
		for _, e := range h.IncidentEdges(v) {
			for _, u := range h.Pins(int(e)) {
				if int(u) == v {
					continue
				}
				if weighted {
					row[parts[u]] += h.EdgeWeight(int(e))
				} else if !seen[u] {
					seen[u] = true
					row[parts[u]]++
				}
			}
		}
	}
	return pairs
}

// samePairs compares the kernel's pair counts with a recount, and checks
// that every nonzero cell is marked in the bitmap.
func samePairs(got *pairCounts, want []int64) error {
	p := got.p
	for i := range want {
		if got.m[i] != want[i] {
			return fmt.Errorf("pairs[%d] = %d, recount %d", i, got.m[i], want[i])
		}
		a, j := i/p, i%p
		if want[i] != 0 && got.nz[a*got.words+j/64]>>(j%64)&1 == 0 {
			return fmt.Errorf("pairs[%d] = %d but is not marked", i, want[i])
		}
	}
	return nil
}

// fewDistinctCost is a symmetric matrix drawn from three values with no
// block structure, which the cost index classifies as unstructured (so it
// is scanned exhaustively).
func fewDistinctCost(p int, seed uint64) [][]float64 {
	vals := []float64{1, 1.5, 2}
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
	return cost
}

// pairCountCases spans every scan strategy (exhaustive, uniform, blocked,
// bounded), frontier restreaming, capacities, shuffled order and a warm
// start with a migration penalty.
func pairCountCases(p int, nv int) []struct {
	label string
	cost  [][]float64
	mut   func(*Config)
} {
	initial := make([]int32, nv)
	for v := range initial {
		initial[v] = int32((v * 5) % p)
	}
	caps := make([]float64, p)
	rng := stats.NewRNG(21)
	for i := range caps {
		caps[i] = 0.5 + 2*rng.Float64()
	}
	return []struct {
		label string
		cost  [][]float64
		mut   func(*Config)
	}{
		{"exhaustive", physCost(p, 2), func(c *Config) { c.forceExhaustive = true }},
		{"uniform", profile.UniformCost(p), nil},
		{"blocked", hier2Cost(p), nil},
		{"profiled", physCost(p, 3), nil},
		{"bounded", fewDistinctCost(p, 4), nil},
		{"frontier", hier3Cost(p), func(c *Config) { c.FrontierRestreaming = true }},
		{"capacities", hier2Cost(p), func(c *Config) { c.Capacities = caps }},
		{"shuffled", profile.UniformCost(p), func(c *Config) { c.ShuffledOrder, c.Seed = true, 5 }},
		{"repartition", physCost(p, 5), func(c *Config) { c.InitialParts, c.MigrationPenalty = initial, 0.5 }},
	}
}

// TestPairCountsMatchRecount is the invariant behind the incremental
// convergence check: after every pass of a serial run, the pair counts the
// stream maintained move by move equal a recount from the partition, for
// every scan strategy and config corner and in both neighbour-count modes.
// p = 80 gives rows two bitmap words, the second one partial, and the
// alternation of p across runs makes pooled matrices change layout, while
// consecutive runs at one p reuse a matrix its previous run left nonzero.
func TestPairCountsMatchRecount(t *testing.T) {
	h := randomHG(31, 300, 420, 8)
	for _, weighted := range []bool{false, true} {
		for _, p := range []int{32, 80} {
			for _, tc := range pairCountCases(p, h.NumVertices()) {
				label := fmt.Sprintf("p=%d/%s/edgeweights=%v", p, tc.label, weighted)
				cfg := DefaultConfig(tc.cost)
				cfg.MaxIterations = 25
				cfg.UseEdgeWeights = weighted
				cfg.forceTouchedOnly = true
				if tc.mut != nil {
					tc.mut(&cfg)
				}
				var pr *Partitioner
				passes := 0
				var failed error
				cfg.Progress = func(IterationStats) {
					passes++
					if failed == nil {
						failed = samePairs(&pr.sc.pairs, naivePairs(h, pr.sc.snapshot, p, weighted))
					}
				}
				pr, err := New(h, cfg)
				if err != nil {
					t.Fatal(err)
				}
				pr.Run()
				pr.Release()
				if failed != nil {
					t.Fatalf("%s: %v", label, failed)
				}
				if passes < 2 {
					t.Fatalf("%s: only %d passes checked", label, passes)
				}
			}
		}
	}
}

// TestParallelPairCountsMatchRecount checks the run's matrix after every
// superstep at several worker counts: maintained by the lone worker at
// w=1, recounted by row range at every barrier at w=2.
func TestParallelPairCountsMatchRecount(t *testing.T) {
	h := randomHG(32, 300, 420, 8)
	p := 32
	for _, workers := range []int{1, 2} {
		for _, weighted := range []bool{false, true} {
			for _, tc := range pairCountCases(p, h.NumVertices()) {
				label := fmt.Sprintf("w=%d/%s/edgeweights=%v", workers, tc.label, weighted)
				cfg := DefaultConfig(tc.cost)
				cfg.MaxIterations = 20
				cfg.UseEdgeWeights = weighted
				cfg.forceTouchedOnly = true
				if tc.mut != nil {
					tc.mut(&cfg)
				}
				var pr *Partitioner
				var failed error
				cfg.Progress = func(IterationStats) {
					if failed == nil {
						failed = samePairs(&pr.sc.pairs, naivePairs(h, pr.sc.snapshot, p, weighted))
					}
				}
				pr, err := newPartitioner(h, cfg, workers)
				if err != nil {
					t.Fatal(err)
				}
				pr.Run()
				pr.Release()
				if failed != nil {
					t.Fatalf("%s: %v", label, failed)
				}
			}
		}
	}
}

// TestParallelRunKeepsOnePairMatrix bounds a parallel run's memory: the
// pair matrix is one p×p array per run, whatever the worker count, so an
// 8-worker run at p = 256 on a small hypergraph allocates about one matrix
// (512 KB), not one per worker. Two GCs empty the scratch pool first, so
// every buffer the run needs is a fresh allocation.
func TestParallelRunKeepsOnePairMatrix(t *testing.T) {
	h := randomHG(34, 300, 420, 8)
	p, workers := 256, 8
	cfg := DefaultConfig(hier2Cost(p))
	cfg.Index = BuildCostIndex(cfg.CostMatrix)
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pr, err := newPartitioner(h, cfg, workers)
	if err != nil {
		t.Fatal(err)
	}
	pr.Release()
	runtime.ReadMemStats(&after)
	matrix := uint64(8 * p * p)
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*matrix {
		t.Fatalf("building a %d-worker run at p=%d allocated %d bytes, want at most %d (one pair matrix is %d)",
			workers, p, got, 2*matrix, matrix)
	}
}

// TestFinalCommCostMatchesReference pins the monitored PC(P) to the
// reference metrics: FinalCommCost equals metrics.CommCost (or
// WeightedCommCost) of the returned partition exactly on the uniform matrix,
// whose terms are all integers, and within 1e-12 relative on profiled
// matrices, where the pair-count sum and the vertex-order sum round
// differently — for serial, frontier, and parallel w=1 and w=2 runs.
func TestFinalCommCostMatchesReference(t *testing.T) {
	h := randomHG(33, 400, 560, 8)
	p := 32
	for _, weighted := range []bool{false, true} {
		for _, tc := range []struct {
			label string
			cost  [][]float64
			exact bool
		}{
			{"uniform", profile.UniformCost(p), true},
			{"profiled", physCost(p, 6), false},
			{"hier3", hier3Cost(p), false},
		} {
			for _, mode := range []string{"serial", "frontier", "w=1", "w=2"} {
				label := fmt.Sprintf("%s/%s/edgeweights=%v", tc.label, mode, weighted)
				cfg := DefaultConfig(tc.cost)
				cfg.MaxIterations = 30
				cfg.UseEdgeWeights = weighted
				var res Result
				var err error
				switch mode {
				case "serial", "frontier":
					cfg.FrontierRestreaming = mode == "frontier"
					var pr *Partitioner
					if pr, err = New(h, cfg); err == nil {
						res = pr.Run()
						pr.Release()
					}
				case "w=1":
					res, err = PartitionParallel(h, cfg, 1)
				default:
					res, err = PartitionParallel(h, cfg, 2)
				}
				if err != nil {
					t.Fatal(err)
				}
				want := metrics.CommCost(h, res.Parts, tc.cost)
				if weighted {
					want = metrics.WeightedCommCost(h, res.Parts, tc.cost)
				}
				got := res.FinalCommCost
				if tc.exact && got != want {
					t.Fatalf("%s: FinalCommCost %v, reference %v", label, got, want)
				}
				if math.Abs(got-want) > 1e-12*math.Abs(want) {
					t.Fatalf("%s: FinalCommCost %v, reference %v (rel %.3g)",
						label, got, want, math.Abs(got-want)/math.Abs(want))
				}
			}
		}
	}
}

// TestTouchedPruningMatchesExhaustive drives one blocked and one uniform
// fixture where the O(1) touched-candidate bound actually fires
// (TouchedPruned > 0) and demands the moves of the exhaustive reference,
// serially and on one parallel worker.
func TestTouchedPruningMatchesExhaustive(t *testing.T) {
	h := randomHG(34, 500, 700, 10)
	for _, tc := range []struct {
		label string
		cost  [][]float64
	}{
		{"blocked", hier2Cost(32)},
		{"uniform", profile.UniformCost(32)},
	} {
		cfg := DefaultConfig(tc.cost)
		cfg.MaxIterations = 30
		var serialStats, parStats StreamStats
		cfg.Stats = &serialStats
		fast, ref := runPair(t, h, cfg)
		assertIdentical(t, tc.label, fast, ref)
		if serialStats.TouchedPruned == 0 {
			t.Fatalf("%s: touched-candidate bound never fired (%+v)", tc.label, serialStats)
		}

		cfg.Stats = &parStats
		fast, ref = runPairParallel(t, h, cfg)
		assertIdentical(t, tc.label+"/parallel", fast, ref)
		if parStats.TouchedPruned == 0 {
			t.Fatalf("%s/parallel: touched-candidate bound never fired (%+v)", tc.label, parStats)
		}
	}
}
