package core

import (
	"testing"

	"hyperpraw/internal/profile"
)

// TestStopHookCancelsSerialRun: a Stop hook tripping after a fixed number of
// polls ends the run with StoppedCanceled and a usable partition.
func TestStopHookCancelsSerialRun(t *testing.T) {
	h := randomHG(7, 300, 600, 6)
	cfg := DefaultConfig(profile.UniformCost(4))
	cfg.MaxIterations = 50
	polls := 0
	cfg.Stop = func() bool {
		polls++
		return polls > 3
	}
	pr, err := New(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Release()
	res := pr.Run()
	if res.Stopped != StoppedCanceled {
		t.Fatalf("Stopped = %v, want StoppedCanceled", res.Stopped)
	}
	if res.Iterations != 3 {
		t.Fatalf("Iterations = %d, want 3 (stop trips on the 4th poll)", res.Iterations)
	}
	if len(res.Parts) != h.NumVertices() {
		t.Fatalf("Parts length %d, want %d", len(res.Parts), h.NumVertices())
	}
	for v, p := range res.Parts {
		if p < 0 || p >= 4 {
			t.Fatalf("vertex %d assigned to invalid partition %d", v, p)
		}
	}
	if res.Stopped.String() != "canceled" {
		t.Fatalf("String() = %q", res.Stopped)
	}
}

// TestStopHookCancelsParallelRun: the same hook semantics hold for the
// parallel kernel.
func TestStopHookCancelsParallelRun(t *testing.T) {
	h := randomHG(8, 300, 600, 6)
	cfg := DefaultConfig(profile.UniformCost(4))
	cfg.MaxIterations = 50
	stopNow := false
	cfg.Stop = func() bool { return stopNow }
	cfg.Progress = func(st IterationStats) {
		if st.Iteration >= 2 {
			stopNow = true
		}
	}
	res, err := PartitionParallel(h, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stopped != StoppedCanceled {
		t.Fatalf("Stopped = %v, want StoppedCanceled", res.Stopped)
	}
	if res.Iterations != 2 {
		t.Fatalf("Iterations = %d, want 2", res.Iterations)
	}
	if len(res.Parts) != h.NumVertices() {
		t.Fatalf("Parts length %d, want %d", len(res.Parts), h.NumVertices())
	}
}

// TestStopHookImmediateCancel: canceling before the first pass still returns
// a complete (round-robin) assignment, never a nil or partial one.
func TestStopHookImmediateCancel(t *testing.T) {
	h := randomHG(9, 100, 200, 5)
	cfg := DefaultConfig(profile.UniformCost(3))
	cfg.Stop = func() bool { return true }
	pr, err := New(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Release()
	res := pr.Run()
	if res.Stopped != StoppedCanceled || res.Iterations != 0 {
		t.Fatalf("Stopped = %v, Iterations = %d", res.Stopped, res.Iterations)
	}
	if len(res.Parts) != h.NumVertices() {
		t.Fatalf("Parts length %d, want %d", len(res.Parts), h.NumVertices())
	}
}

// TestStopBeforeFirstPassCostsRoundRobin: a run stopped before its first
// pass never streamed, so nothing built its pair matrix; it must count the
// matrix then. Its FinalCommCost must be the round-robin partition's cost
// from an independent recount, summed in pairCounts.cost's order, at one
// worker and at two, in both neighbour-count modes.
func TestStopBeforeFirstPassCostsRoundRobin(t *testing.T) {
	h := randomHG(10, 400, 560, 8)
	p := 32
	roundRobin := make([]int32, h.NumVertices())
	for v := range roundRobin {
		roundRobin[v] = int32(v % p)
	}
	for _, cost := range [][][]float64{profile.UniformCost(p), hier2Cost(p), physCost(p, 4)} {
		for _, weighted := range []bool{false, true} {
			pairs := naivePairs(h, roundRobin, p, weighted)
			want := 0.0
			for a, c := range cost {
				row := 0.0
				for j, x := range pairs[a*p : (a+1)*p] {
					if x != 0 {
						row += float64(x) * c[j]
					}
				}
				want += row
			}
			for _, workers := range []int{1, 2} {
				cfg := DefaultConfig(cost)
				cfg.UseEdgeWeights = weighted
				cfg.Stop = func() bool { return true }
				res, err := PartitionParallel(h, cfg, workers)
				if err != nil {
					t.Fatal(err)
				}
				if res.Iterations != 0 || res.FinalCommCost != want {
					t.Fatalf("w=%d edgeweights=%v: %d iterations, FinalCommCost %v, round-robin recount %v",
						workers, weighted, res.Iterations, res.FinalCommCost, want)
				}
			}
		}
	}
}
