package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"hyperpraw/internal/hgen"
	"hyperpraw/internal/hypergraph"
	"hyperpraw/internal/metrics"
	"hyperpraw/internal/profile"
	"hyperpraw/internal/stats"
	"hyperpraw/internal/topology"
)

func testHG(seed uint64) *hypergraph.Hypergraph {
	spec := hgen.Spec{Name: "t", Kind: hgen.KindGeometric, Vertices: 400, Hyperedges: 400, AvgCardinality: 6, Locality: 0.95}
	return hgen.Generate(spec, seed)
}

func TestFennelAlpha(t *testing.T) {
	got := FennelAlpha(16, 1000, 100)
	want := 4.0 * 1000 / 10
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("alpha %g, want %g", got, want)
	}
	if FennelAlpha(4, 10, 0) != 1 {
		t.Fatal("zero-vertex alpha should fall back to 1")
	}
}

func TestConfigValidation(t *testing.T) {
	h := testHG(1)
	valid := DefaultConfig(profile.UniformCost(4))

	cases := []func(Config) Config{
		func(c Config) Config { c.CostMatrix = nil; return c },
		func(c Config) Config { c.CostMatrix = [][]float64{{0, 1}, {1}}; return c },
		func(c Config) Config { c.CostMatrix = [][]float64{{1, 1}, {1, 0}}; return c }, // nonzero diagonal
		func(c Config) Config { c.ImbalanceTolerance = 1; return c },
		func(c Config) Config { c.MaxIterations = 0; return c },
		func(c Config) Config { c.TemperFactor = 0; return c },
		func(c Config) Config { c.RefinementFactor = -1; return c },
	}
	for i, mutate := range cases {
		if _, err := New(h, mutate(valid)); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := New(h, valid); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestNegativeWeightsRejected: hypergraph.Builder accepts negative vertex
// and hyperedge weights, but the fast scans assume non-negative ones. On
// this fixture (every third vertex weighted −2) a forced touched-only run
// and a forced exhaustive run once disagreed on every vertex, so New and
// PartitionParallel must refuse it and name the first offending weight.
func TestNegativeWeightsRejected(t *testing.T) {
	h := randomHG(7, 400, 500, 8)
	reweighted := func(vertexWeight func(v int) int64, edgeWeight func(e int) int64) *hypergraph.Hypergraph {
		b := hypergraph.NewBuilder(h.NumVertices())
		for e := 0; e < h.NumEdges(); e++ {
			pins := make([]int, 0, h.Cardinality(e))
			for _, u := range h.Pins(e) {
				pins = append(pins, int(u))
			}
			b.AddWeightedEdge(edgeWeight(e), pins...)
		}
		for v := 0; v < h.NumVertices(); v++ {
			b.SetVertexWeight(v, vertexWeight(v))
		}
		return b.Build()
	}
	for _, tc := range []struct {
		h    *hypergraph.Hypergraph
		want string
	}{
		{reweighted(func(v int) int64 {
			if v%3 == 2 {
				return -2
			}
			return h.VertexWeight(v)
		}, h.EdgeWeight), "vertex 2 has negative weight -2"},
		{reweighted(h.VertexWeight, func(e int) int64 {
			if e == 5 {
				return -1
			}
			return h.EdgeWeight(e)
		}), "hyperedge 5 has negative weight -1"},
	} {
		cfg := DefaultConfig(hier2Cost(64))
		if _, err := New(tc.h, cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("New: %v, want an error naming %q", err, tc.want)
		}
		if _, err := PartitionParallel(tc.h, cfg, 2); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("PartitionParallel: %v, want an error naming %q", err, tc.want)
		}
	}
}

func TestRunProducesValidPartition(t *testing.T) {
	h := testHG(2)
	for _, k := range []int{2, 4, 8, 16} {
		cfg := DefaultConfig(profile.UniformCost(k))
		res, err := New(h, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := res.Run()
		if err := metrics.ValidatePartition(h, out.Parts, k); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if out.Iterations < 1 {
			t.Fatalf("k=%d: no iterations", k)
		}
	}
}

func TestRunReachesTolerance(t *testing.T) {
	h := testHG(3)
	k := 8
	cfg := DefaultConfig(profile.UniformCost(k))
	pr, err := New(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := pr.Run()
	if out.FinalImbalance > cfg.ImbalanceTolerance*1.05 {
		t.Fatalf("final imbalance %g exceeds tolerance %g", out.FinalImbalance, cfg.ImbalanceTolerance)
	}
}

func TestRunDeterministic(t *testing.T) {
	h := testHG(4)
	cfg := DefaultConfig(profile.UniformCost(4))
	a := mustRun(t, h, cfg)
	b := mustRun(t, h, cfg)
	for v := range a.Parts {
		if a.Parts[v] != b.Parts[v] {
			t.Fatalf("nondeterministic at vertex %d", v)
		}
	}
	if a.Iterations != b.Iterations {
		t.Fatal("iteration counts differ")
	}
}

func mustRun(t *testing.T, h *hypergraph.Hypergraph, cfg Config) Result {
	t.Helper()
	pr, err := New(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pr.Run()
}

func TestStreamingImprovesOverRoundRobin(t *testing.T) {
	h := testHG(5)
	k := 8
	cost := profile.UniformCost(k)
	cfg := DefaultConfig(cost)
	out := mustRun(t, h, cfg)

	rr := make([]int32, h.NumVertices())
	for v := range rr {
		rr[v] = int32(v % k)
	}
	rrCost := metrics.CommCost(h, rr, cost)
	if out.FinalCommCost >= rrCost {
		t.Fatalf("restreaming PC %g did not improve on round-robin %g", out.FinalCommCost, rrCost)
	}
	// On a local geometric instance the improvement should be substantial.
	if out.FinalCommCost > 0.8*rrCost {
		t.Fatalf("restreaming PC %g too close to round-robin %g", out.FinalCommCost, rrCost)
	}
}

func TestRefinementImprovesOverStopAtTolerance(t *testing.T) {
	h := testHG(6)
	k := 8
	cost := profile.UniformCost(k)

	noRef := DefaultConfig(cost)
	noRef.RefinementPolicy = StopAtTolerance
	outNoRef := mustRun(t, h, noRef)

	ref := DefaultConfig(cost)
	ref.RefinementFactor = 0.95
	outRef := mustRun(t, h, ref)

	if outRef.Iterations <= outNoRef.Iterations {
		t.Fatalf("refinement should run longer: %d vs %d iterations", outRef.Iterations, outNoRef.Iterations)
	}
	// Fig 3's claim: refinement reaches lower PC than stopping at tolerance.
	if outRef.FinalCommCost > outNoRef.FinalCommCost {
		t.Fatalf("refinement PC %g worse than no-refinement PC %g", outRef.FinalCommCost, outNoRef.FinalCommCost)
	}
}

func TestHistoryRecorded(t *testing.T) {
	h := testHG(7)
	cfg := DefaultConfig(profile.UniformCost(4))
	cfg.RecordHistory = true
	out := mustRun(t, h, cfg)
	if len(out.History) != out.Iterations {
		t.Fatalf("history length %d, iterations %d", len(out.History), out.Iterations)
	}
	for i, st := range out.History {
		if st.Iteration != i+1 {
			t.Fatalf("history iteration %d at index %d", st.Iteration, i)
		}
		if st.CommCost < 0 || st.Imbalance < 1 {
			t.Fatalf("invalid history entry %+v", st)
		}
		if st.Alpha <= 0 {
			t.Fatalf("non-positive alpha %g", st.Alpha)
		}
	}
}

func TestHistoryAlphaTempering(t *testing.T) {
	h := testHG(8)
	cfg := DefaultConfig(profile.UniformCost(4))
	cfg.RecordHistory = true
	cfg.TemperFactor = 1.7
	cfg.RefinementFactor = 0.95
	out := mustRun(t, h, cfg)
	for i := 1; i < len(out.History); i++ {
		prev, cur := out.History[i-1], out.History[i]
		ratio := cur.Alpha / prev.Alpha
		var want float64
		if prev.InTolerance {
			want = 0.95
		} else {
			want = 1.7
		}
		if math.Abs(ratio-want) > 1e-9 {
			t.Fatalf("iteration %d: alpha ratio %g, want %g (inTol=%v)", cur.Iteration, ratio, want, prev.InTolerance)
		}
	}
}

func TestStopAtTolerancePolicy(t *testing.T) {
	h := testHG(9)
	cfg := DefaultConfig(profile.UniformCost(4))
	cfg.RefinementPolicy = StopAtTolerance
	out := mustRun(t, h, cfg)
	if out.Stopped != StoppedAtTolerance && out.Stopped != StoppedMaxIterations {
		t.Fatalf("unexpected stop reason %v", out.Stopped)
	}
	if out.Stopped == StoppedAtTolerance && out.FinalImbalance > cfg.ImbalanceTolerance {
		t.Fatalf("stopped at tolerance with imbalance %g", out.FinalImbalance)
	}
}

func TestNoImprovementReturnsPreviousPartition(t *testing.T) {
	h := testHG(10)
	cfg := DefaultConfig(profile.UniformCost(8))
	cfg.RecordHistory = true
	out := mustRun(t, h, cfg)
	if out.Stopped == StoppedNoImprovement {
		// The returned partition must be the best (previous) one, so its
		// cost must be <= the last history entry's cost.
		last := out.History[len(out.History)-1]
		if out.FinalCommCost > last.CommCost+1e-9 {
			t.Fatalf("returned PC %g worse than final iteration %g", out.FinalCommCost, last.CommCost)
		}
	}
}

func TestMaxIterationsCap(t *testing.T) {
	h := testHG(11)
	cfg := DefaultConfig(profile.UniformCost(4))
	cfg.MaxIterations = 3
	out := mustRun(t, h, cfg)
	if out.Iterations > 3 {
		t.Fatalf("ran %d iterations, cap 3", out.Iterations)
	}
}

func TestAwareAvoidsSlowLinks(t *testing.T) {
	// On a strongly tiered machine, the aware variant must place more
	// cross-partition neighbour relations on cheap links than basic.
	k := 16
	machine := topology.MustNew(topology.Archer(), k, 1)
	bw := profile.RingProfile(machine, profile.DefaultConfig())
	physCost := profile.CostMatrix(bw)

	h := testHG(12)

	basicCfg := DefaultConfig(profile.UniformCost(k))
	basic := mustRun(t, h, basicCfg)

	awareCfg := DefaultConfig(physCost)
	aware := mustRun(t, h, awareCfg)

	basicPC := metrics.CommCost(h, basic.Parts, physCost)
	awarePC := metrics.CommCost(h, aware.Parts, physCost)
	if awarePC >= basicPC {
		t.Fatalf("aware PC %g not below basic PC %g under the physical cost matrix", awarePC, basicPC)
	}
}

func TestVertexWeightsRespected(t *testing.T) {
	b := hypergraph.NewBuilder(0)
	rng := stats.NewRNG(3)
	for e := 0; e < 200; e++ {
		b.AddEdge(rng.Intn(100), rng.Intn(100), rng.Intn(100))
	}
	for v := 0; v < 100; v++ {
		b.SetVertexWeight(v, int64(rng.Intn(5)+1))
	}
	h := b.Build()
	k := 4
	cfg := DefaultConfig(profile.UniformCost(k))
	out := mustRun(t, h, cfg)
	loads := metrics.Loads(h, out.Parts, k)
	imb := metrics.Imbalance(loads)
	if imb > cfg.ImbalanceTolerance*1.3 {
		t.Fatalf("weighted imbalance %g", imb)
	}
}

func TestPartitionConvenience(t *testing.T) {
	h := testHG(13)
	parts, err := Partition(h, DefaultConfig(profile.UniformCost(4)))
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.ValidatePartition(h, parts, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := Partition(h, Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestStopReasonString(t *testing.T) {
	for _, r := range []StopReason{StoppedNoImprovement, StoppedAtTolerance, StoppedMaxIterations, StopReason(42)} {
		if r.String() == "" {
			t.Fatalf("empty string for %d", int(r))
		}
	}
}

// Property: HyperPRAW always yields valid partitions with imbalance within a
// loose bound, for arbitrary small hypergraphs and k.
func TestQuickRunInvariants(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		k := int(kRaw)%6 + 2
		rng := stats.NewRNG(seed)
		nv := rng.Intn(150) + k
		ne := rng.Intn(200) + 10
		b := hypergraph.NewBuilder(nv)
		for e := 0; e < ne; e++ {
			card := rng.Intn(4) + 2
			pins := make([]int, card)
			for i := range pins {
				pins[i] = rng.Intn(nv)
			}
			b.AddEdge(pins...)
		}
		h := b.Build()
		cfg := DefaultConfig(profile.UniformCost(k))
		cfg.MaxIterations = 30
		pr, err := New(h, cfg)
		if err != nil {
			return false
		}
		out := pr.Run()
		if metrics.ValidatePartition(h, out.Parts, k) != nil {
			return false
		}
		return out.Iterations >= 1 && out.Iterations <= 30
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
