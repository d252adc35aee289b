package core

import (
	"testing"

	"hyperpraw/internal/hgen"
	"hyperpraw/internal/hypergraph"
	"hyperpraw/internal/metrics"
	"hyperpraw/internal/profile"
	"hyperpraw/internal/stats"
)

func TestPatienceExtendsRefinement(t *testing.T) {
	h := testHG(20)
	k := 8
	impatient := DefaultConfig(profile.UniformCost(k))
	impatient.Patience = 1
	patient := DefaultConfig(profile.UniformCost(k))
	patient.Patience = 5

	a := mustRun(t, h, impatient)
	b := mustRun(t, h, patient)
	if b.Iterations < a.Iterations {
		t.Fatalf("patience 5 ran fewer iterations (%d) than patience 1 (%d)", b.Iterations, a.Iterations)
	}
	// More patience can never return a worse best-so-far cost.
	if b.FinalCommCost > a.FinalCommCost+1e-9 {
		t.Fatalf("patience 5 cost %g worse than patience 1 cost %g", b.FinalCommCost, a.FinalCommCost)
	}
}

func TestReturnedPartitionIsBestSeen(t *testing.T) {
	h := testHG(21)
	cfg := DefaultConfig(profile.UniformCost(8))
	cfg.RecordHistory = true
	out := mustRun(t, h, cfg)
	// The final cost must be <= every in-tolerance history cost.
	for _, st := range out.History {
		if st.InTolerance && out.FinalCommCost > st.CommCost+1e-9 {
			t.Fatalf("final cost %g worse than in-tolerance iteration %d (%g)",
				out.FinalCommCost, st.Iteration, st.CommCost)
		}
	}
}

func TestShuffledOrderValidAndDeterministic(t *testing.T) {
	h := testHG(22)
	cfg := DefaultConfig(profile.UniformCost(8))
	cfg.ShuffledOrder = true
	cfg.Seed = 42
	a := mustRun(t, h, cfg)
	b := mustRun(t, h, cfg)
	if err := metrics.ValidatePartition(h, a.Parts, 8); err != nil {
		t.Fatal(err)
	}
	for v := range a.Parts {
		if a.Parts[v] != b.Parts[v] {
			t.Fatal("shuffled order with same seed not deterministic")
		}
	}
	cfg.Seed = 43
	c := mustRun(t, h, cfg)
	same := true
	for v := range a.Parts {
		if a.Parts[v] != c.Parts[v] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different shuffle seeds produced identical partitions")
	}
}

func TestUseEdgeWeightsRespondsToWeights(t *testing.T) {
	// Two clusters joined by one heavy hyperedge: with UseEdgeWeights the
	// heavy edge must be kept internal in preference to several light ones.
	b := hypergraph.NewBuilder(8)
	b.AddWeightedEdge(100, 0, 4) // heavy pair crossing the natural halves
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(i, j)
			b.AddEdge(4+i, 4+j)
		}
	}
	h := b.Build()
	cfg := DefaultConfig(profile.UniformCost(2))
	cfg.UseEdgeWeights = true
	cfg.ImbalanceTolerance = 1.5 // leave room to co-locate the heavy pair
	out := mustRun(t, h, cfg)
	if out.Parts[0] != out.Parts[4] {
		t.Fatalf("heavy edge cut: vertex 0 in %d, vertex 4 in %d", out.Parts[0], out.Parts[4])
	}
}

func TestWeightedCommCostMonitored(t *testing.T) {
	h := testHG(23)
	cfg := DefaultConfig(profile.UniformCost(4))
	cfg.UseEdgeWeights = true
	cfg.RecordHistory = true
	out := mustRun(t, h, cfg)
	want := metrics.WeightedCommCost(h, out.Parts, cfg.CostMatrix)
	if out.FinalCommCost != want {
		t.Fatalf("FinalCommCost %g, want weighted %g", out.FinalCommCost, want)
	}
}

func TestCapacitiesSkewLoads(t *testing.T) {
	h := testHG(24)
	k := 4
	cfg := DefaultConfig(profile.UniformCost(k))
	// Partition 0 has 3x the capacity of the others.
	cfg.Capacities = []float64{3, 1, 1, 1}
	out := mustRun(t, h, cfg)
	loads := metrics.Loads(h, out.Parts, k)
	// Partition 0 should end clearly more loaded than each other partition.
	for i := 1; i < k; i++ {
		if loads[0] <= loads[i] {
			t.Fatalf("capacity-3 partition load %d not above capacity-1 load %d (loads %v)", loads[0], loads[i], loads)
		}
	}
	// And roughly in proportion: load0 should be at least 1.5x the mean of
	// the others.
	otherMean := float64(loads[1]+loads[2]+loads[3]) / 3
	if float64(loads[0]) < 1.5*otherMean {
		t.Fatalf("capacity skew too weak: %v", loads)
	}
}

func TestCapacitiesValidation(t *testing.T) {
	h := testHG(25)
	cfg := DefaultConfig(profile.UniformCost(4))
	cfg.Capacities = []float64{1, 1} // wrong length
	if _, err := New(h, cfg); err == nil {
		t.Fatal("wrong capacity length accepted")
	}
	cfg.Capacities = []float64{1, 1, 0, 1} // non-positive
	if _, err := New(h, cfg); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestPartitionParallelValid(t *testing.T) {
	h := testHG(26)
	k := 8
	cfg := DefaultConfig(profile.UniformCost(k))
	for _, workers := range []int{1, 2, 4, 0} {
		out, err := PartitionParallel(h, cfg, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := metrics.ValidatePartition(h, out.Parts, k); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if out.Iterations < 1 {
			t.Fatalf("workers=%d: no iterations", workers)
		}
	}
}

func TestPartitionParallelQualityNearSerial(t *testing.T) {
	h := testHG(27)
	k := 8
	cost := profile.UniformCost(k)
	cfg := DefaultConfig(cost)
	serial := mustRun(t, h, cfg)
	par, err := PartitionParallel(h, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	// GraSP's observation: parallel streaming costs little quality. Accept
	// up to 40% degradation on this small noisy instance.
	if par.FinalCommCost > serial.FinalCommCost*1.4 {
		t.Fatalf("parallel PC %g much worse than serial %g", par.FinalCommCost, serial.FinalCommCost)
	}
	// Balance must still be respected (loose bound: the parallel variant's
	// stopping iteration may differ).
	if par.FinalImbalance > cfg.ImbalanceTolerance*1.2 {
		t.Fatalf("parallel imbalance %g", par.FinalImbalance)
	}
}

func TestPartitionParallelSingleWorkerMatchesSerialShape(t *testing.T) {
	// With one worker PartitionParallel runs the one-worker Partitioner
	// that New builds, so the results agree (move for move, which
	// TestParallelSingleWorkerMatchesSerialRun checks); this test keeps a
	// coarse quality bound on top.
	h := testHG(28)
	cfg := DefaultConfig(profile.UniformCost(8))
	serial := mustRun(t, h, cfg)
	par, err := PartitionParallel(h, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if par.FinalCommCost > serial.FinalCommCost*1.05 || serial.FinalCommCost > par.FinalCommCost*1.05 {
		t.Fatalf("single-worker parallel PC %g vs serial %g differ beyond 5%%", par.FinalCommCost, serial.FinalCommCost)
	}
}

func TestPartitionParallelErrors(t *testing.T) {
	h := testHG(29)
	if _, err := PartitionParallel(h, Config{}, 2); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestWeightedCommCostIdentity(t *testing.T) {
	// For a graph (all cardinality-2 edges, unit weights), WeightedCommCost
	// equals CommCost when no vertex pair shares more than one edge.
	rng := stats.NewRNG(5)
	b := hypergraph.NewBuilder(30)
	seen := map[[2]int]bool{}
	for len(seen) < 60 {
		u, v := rng.Intn(30), rng.Intn(30)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		b.AddEdge(u, v)
	}
	h := b.Build()
	parts := make([]int32, 30)
	for v := range parts {
		parts[v] = int32(rng.Intn(4))
	}
	cost := profile.UniformCost(4)
	a := metrics.CommCost(h, parts, cost)
	w := metrics.WeightedCommCost(h, parts, cost)
	if a != w {
		t.Fatalf("CommCost %g != WeightedCommCost %g on a simple graph", a, w)
	}
}

// Catalog smoke test: every Table 1 family partitions cleanly through the
// serial and parallel paths at tiny scale.
func TestAllCatalogFamiliesPartition(t *testing.T) {
	k := 8
	cost := profile.UniformCost(k)
	for _, spec := range hgen.Catalog() {
		h := hgen.Generate(spec.Scaled(0.001), 1)
		cfg := DefaultConfig(cost)
		cfg.MaxIterations = 20
		out := mustRun(t, h, cfg)
		if err := metrics.ValidatePartition(h, out.Parts, k); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
	}
}
