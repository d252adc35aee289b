package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"hyperpraw/internal/hypergraph"
	"hyperpraw/internal/profile"
	"hyperpraw/internal/stats"
)

// path builds the 4-vertex hypergraph used in most cases:
// e0 = {0,1}, e1 = {1,2}, e2 = {2,3}, e3 = {0,1,2,3}.
func path(t *testing.T) *hypergraph.Hypergraph {
	t.Helper()
	b := hypergraph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(0, 1, 2, 3)
	return b.Build()
}

func TestValidatePartition(t *testing.T) {
	h := path(t)
	if err := ValidatePartition(h, []int32{0, 0, 1, 1}, 2); err != nil {
		t.Fatal(err)
	}
	if err := ValidatePartition(h, []int32{0, 0, 1}, 2); err == nil {
		t.Fatal("short partition accepted")
	}
	if err := ValidatePartition(h, []int32{0, 0, 2, 1}, 2); err == nil {
		t.Fatal("out-of-range partition accepted")
	}
	if err := ValidatePartition(h, []int32{0, 0, 1, 1}, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestLoads(t *testing.T) {
	h := path(t)
	loads := Loads(h, []int32{0, 0, 1, 1}, 2)
	if loads[0] != 2 || loads[1] != 2 {
		t.Fatalf("loads %v", loads)
	}
}

func TestLoadsWeighted(t *testing.T) {
	b := hypergraph.NewBuilder(2)
	b.AddEdge(0, 1)
	b.SetVertexWeight(0, 10)
	h := b.Build()
	loads := Loads(h, []int32{0, 1}, 2)
	if loads[0] != 10 || loads[1] != 1 {
		t.Fatalf("loads %v", loads)
	}
}

func TestImbalance(t *testing.T) {
	if v := Imbalance([]int64{2, 2}); v != 1 {
		t.Fatalf("balanced imbalance %g", v)
	}
	if v := Imbalance([]int64{4, 0}); v != 2 {
		t.Fatalf("imbalance %g, want 2", v)
	}
	if v := Imbalance(nil); v != 1 {
		t.Fatalf("empty imbalance %g", v)
	}
	if v := Imbalance([]int64{0, 0}); v != 1 {
		t.Fatalf("zero-load imbalance %g", v)
	}
}

func TestConnectivity(t *testing.T) {
	h := path(t)
	parts := []int32{0, 0, 1, 1}
	if l := Connectivity(h, parts, 2, 0); l != 1 {
		t.Fatalf("e0 lambda %d", l)
	}
	if l := Connectivity(h, parts, 2, 1); l != 2 {
		t.Fatalf("e1 lambda %d", l)
	}
	if l := Connectivity(h, parts, 2, 3); l != 2 {
		t.Fatalf("e3 lambda %d", l)
	}
}

func TestHyperedgeCut(t *testing.T) {
	h := path(t)
	if c := HyperedgeCut(h, []int32{0, 0, 1, 1}, 2); c != 2 {
		t.Fatalf("cut %d, want 2 (e1 and e3)", c)
	}
	if c := HyperedgeCut(h, []int32{0, 0, 0, 0}, 1); c != 0 {
		t.Fatalf("single-partition cut %d", c)
	}
	if c := HyperedgeCut(h, []int32{0, 1, 2, 3}, 4); c != 4 {
		t.Fatalf("fully-split cut %d", c)
	}
}

func TestSOED(t *testing.T) {
	h := path(t)
	// e1 spans 2 parts (contributes 2), e3 spans 2 (contributes 2).
	if s := SOED(h, []int32{0, 0, 1, 1}, 2); s != 4 {
		t.Fatalf("SOED %d, want 4", s)
	}
	// Fully split: e0..e2 span 2 (2 each), e3 spans 4.
	if s := SOED(h, []int32{0, 1, 2, 3}, 4); s != 10 {
		t.Fatalf("SOED %d, want 10", s)
	}
}

func TestConnectivityMinusOne(t *testing.T) {
	h := path(t)
	if c := ConnectivityMinusOne(h, []int32{0, 0, 1, 1}, 2); c != 2 {
		t.Fatalf("lambda-1 %d, want 2", c)
	}
	if c := ConnectivityMinusOne(h, []int32{0, 1, 2, 3}, 4); c != 6 {
		t.Fatalf("lambda-1 %d, want 6", c)
	}
}

func TestWeightedCutMetrics(t *testing.T) {
	b := hypergraph.NewBuilder(2)
	b.AddWeightedEdge(5, 0, 1)
	h := b.Build()
	parts := []int32{0, 1}
	if c := HyperedgeCut(h, parts, 2); c != 5 {
		t.Fatalf("weighted cut %d", c)
	}
	if s := SOED(h, parts, 2); s != 10 {
		t.Fatalf("weighted SOED %d", s)
	}
}

func TestCommCostUniform(t *testing.T) {
	h := path(t)
	cost := profile.UniformCost(2)
	parts := []int32{0, 0, 1, 1}
	// Neighbour relations (via e3, all pairs are neighbours; e1 links 1-2):
	// cross pairs: (0,2),(0,3),(1,2),(1,3) → each counted from both sides,
	// so PC = 8 under uniform cost 1.
	got := CommCost(h, parts, cost)
	if got != 8 {
		t.Fatalf("PC %g, want 8", got)
	}
}

func TestCommCostZeroWhenTogether(t *testing.T) {
	h := path(t)
	cost := profile.UniformCost(2)
	if pc := CommCost(h, []int32{0, 0, 0, 0}, cost); pc != 0 {
		t.Fatalf("PC %g for single partition", pc)
	}
}

func TestCommCostUsesCostMatrix(t *testing.T) {
	h := path(t)
	cheap := [][]float64{{0, 1}, {1, 0}}
	expensive := [][]float64{{0, 2}, {2, 0}}
	parts := []int32{0, 0, 1, 1}
	if CommCost(h, parts, expensive) != 2*CommCost(h, parts, cheap) {
		t.Fatal("PC not linear in cost matrix")
	}
}

func TestCommCostCountsDistinctNeighbours(t *testing.T) {
	// Two edges sharing the same vertex pair must count the neighbour once.
	b := hypergraph.NewBuilder(2)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	h := b.Build()
	cost := profile.UniformCost(2)
	if pc := CommCost(h, []int32{0, 1}, cost); pc != 2 {
		t.Fatalf("PC %g, want 2 (one neighbour each side)", pc)
	}
}

func TestEvaluate(t *testing.T) {
	h := path(t)
	h.SetName("path4")
	cost := profile.UniformCost(2)
	r := Evaluate(h, []int32{0, 0, 1, 1}, cost)
	if r.Hypergraph != "path4" || r.K != 2 {
		t.Fatalf("report %+v", r)
	}
	if r.HyperedgeCut != 2 || r.SOED != 4 || r.CommCost != 8 {
		t.Fatalf("report %+v", r)
	}
	if r.Imbalance != 1 {
		t.Fatalf("imbalance %g", r.Imbalance)
	}
}

// brute-force PC for cross-checking: enumerate all vertex pairs.
func bruteCommCost(h *hypergraph.Hypergraph, parts []int32, cost [][]float64) float64 {
	nv := h.NumVertices()
	neighbours := make([]map[int32]bool, nv)
	for v := range neighbours {
		neighbours[v] = map[int32]bool{}
	}
	for e := 0; e < h.NumEdges(); e++ {
		pins := h.Pins(e)
		for _, u := range pins {
			for _, w := range pins {
				if u != w {
					neighbours[u][w] = true
				}
			}
		}
	}
	total := 0.0
	for v := 0; v < nv; v++ {
		for u := range neighbours[v] {
			total += cost[parts[v]][parts[u]]
		}
	}
	return total
}

// Property: the stamped PC computation matches brute force on random
// hypergraphs and partitions.
func TestQuickCommCostMatchesBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		nv := rng.Intn(20) + 2
		ne := rng.Intn(30) + 1
		k := rng.Intn(4) + 2
		b := hypergraph.NewBuilder(nv)
		for e := 0; e < ne; e++ {
			card := rng.Intn(4) + 1
			pins := make([]int, card)
			for i := range pins {
				pins[i] = rng.Intn(nv)
			}
			b.AddEdge(pins...)
		}
		h := b.Build()
		parts := make([]int32, nv)
		for v := range parts {
			parts[v] = int32(rng.Intn(k))
		}
		cost := make([][]float64, k)
		for i := range cost {
			cost[i] = make([]float64, k)
			for j := range cost[i] {
				if i != j {
					cost[i][j] = 1 + rng.Float64()
				}
			}
		}
		// Symmetrise (cost matrices are symmetric in practice).
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				cost[j][i] = cost[i][j]
			}
		}
		got := CommCost(h, parts, cost)
		want := bruteCommCost(h, parts, cost)
		return math.Abs(got-want) < 1e-6*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: SOED >= 2·cut and lambda-1 = SOED − cut on cut edges.
func TestQuickCutIdentities(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		nv := rng.Intn(30) + 2
		ne := rng.Intn(40) + 1
		k := rng.Intn(5) + 1
		b := hypergraph.NewBuilder(nv)
		for e := 0; e < ne; e++ {
			card := rng.Intn(5) + 1
			pins := make([]int, card)
			for i := range pins {
				pins[i] = rng.Intn(nv)
			}
			b.AddEdge(pins...)
		}
		h := b.Build()
		parts := make([]int32, nv)
		for v := range parts {
			parts[v] = int32(rng.Intn(k))
		}
		cut := HyperedgeCut(h, parts, k)
		soed := SOED(h, parts, k)
		lm1 := ConnectivityMinusOne(h, parts, k)
		if cut < 0 || soed < 2*cut {
			return false
		}
		// SOED = Σ λ over cut edges; λ−1 summed = SOED − (number of cut edges).
		return lm1 == soed-cut
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: imbalance is always >= 1.
func TestQuickImbalanceAtLeastOne(t *testing.T) {
	f := func(raw []uint16) bool {
		loads := make([]int64, len(raw))
		for i, v := range raw {
			loads[i] = int64(v)
		}
		return Imbalance(loads) >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
