package core

import (
	"fmt"
	"testing"

	"hyperpraw/internal/hypergraph"
	"hyperpraw/internal/profile"
)

// runWithSink runs cfg once with a stats sink attached and returns the
// result together with the recorded counters.
func runWithSink(t *testing.T, h *hypergraph.Hypergraph, cfg Config) (Result, StreamStats) {
	t.Helper()
	var ks StreamStats
	cfg.Stats = &ks
	pr, err := New(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Release()
	return pr.Run(), ks
}

func assertPopulated(t *testing.T, label string, ks StreamStats) {
	t.Helper()
	if ks.Passes <= 0 {
		t.Fatalf("%s: sink recorded %d passes", label, ks.Passes)
	}
	if ks.Moves <= 0 {
		t.Fatalf("%s: sink recorded %d moves", label, ks.Moves)
	}
	if scans := ks.ScanExhaustive + ks.ScanUniform + ks.ScanBounded + ks.ScanBlocked; scans <= 0 {
		t.Fatalf("%s: sink recorded no scan activity: %+v", label, ks)
	}
}

// TestStatsSinkDoesNotPerturbKernel is the observability parity property:
// attaching a Stats sink must not change a single move — the run with a
// sink matches the run without one bit for bit — while the sink comes back
// populated. Covered across the three scan regimes (uniform heap scan,
// profiled blocked scan, exact hierarchical tiers).
func TestStatsSinkDoesNotPerturbKernel(t *testing.T) {
	h := randomHG(3, 300, 400, 8)
	for _, tc := range []struct {
		label string
		cost  [][]float64
	}{
		{"uniform", profile.UniformCost(16)},
		{"profiled", physCost(16, 3)},
		{"hier2", tierCost(16, []int{4}, []float64{1, 2})},
	} {
		cfg := DefaultConfig(tc.cost)
		cfg.MaxIterations = 20
		cfg.RecordHistory = true

		pr, err := New(h, cfg)
		if err != nil {
			t.Fatal(err)
		}
		plain := pr.Run()
		pr.Release()

		sunk, ks := runWithSink(t, h, cfg)
		assertIdentical(t, tc.label, sunk, plain)
		assertPopulated(t, tc.label, ks)
		if ks.Passes < int64(plain.Iterations) {
			t.Fatalf("%s: %d passes for %d iterations", tc.label, ks.Passes, plain.Iterations)
		}
	}
}

// TestStatsSinkAccumulates pins the Add semantics: one sink shared across
// two runs holds the sum, so the serving tier can aggregate per-job sinks
// into process-lifetime counters. The two-tier matrix at p=32 engages the
// blocked scan, so the fast scans' counters are summed too.
func TestStatsSinkAccumulates(t *testing.T) {
	h := randomHG(5, 200, 300, 6)
	cfg := DefaultConfig(hier2Cost(32))
	cfg.MaxIterations = 10

	var ks StreamStats
	cfg.Stats = &ks
	for i := 0; i < 2; i++ {
		pr, err := New(h, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pr.Run()
		pr.Release()
	}
	_, single := runWithSink(t, h, cfg)
	if ks != (StreamStats{
		Passes:              2 * single.Passes,
		FrontierPasses:      2 * single.FrontierPasses,
		FrontierVisited:     2 * single.FrontierVisited,
		Moves:               2 * single.Moves,
		ScanExhaustive:      2 * single.ScanExhaustive,
		ScanUniform:         2 * single.ScanUniform,
		ScanBounded:         2 * single.ScanBounded,
		ScanBlocked:         2 * single.ScanBlocked,
		ExhaustiveFallbacks: 2 * single.ExhaustiveFallbacks,
		BlockedWork:         2 * single.BlockedWork,
		BlockRejections:     2 * single.BlockRejections,
		ExactSettles:        2 * single.ExactSettles,
		TouchedPruned:       2 * single.TouchedPruned,
	}) {
		t.Fatalf("two runs accumulated %+v, one run records %+v", ks, single)
	}
}

// TestStatsSinkParallel covers the parallel kernel's sink: a single-worker
// run with a sink matches the run without one (the deterministic regime the
// parallel equivalence tests pin), and the sink is populated for multi-
// worker runs too.
func TestStatsSinkParallel(t *testing.T) {
	h := randomHG(2, 400, 500, 8)
	cfg := DefaultConfig(physCost(16, 1))
	cfg.MaxIterations = 15
	cfg.RecordHistory = true

	plain, err := PartitionParallel(h, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	var ks StreamStats
	cfg.Stats = &ks
	sunk, err := PartitionParallel(h, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "parallel/1", sunk, plain)
	assertPopulated(t, "parallel/1", ks)

	for _, workers := range []int{2, 4} {
		var kw StreamStats
		cfg.Stats = &kw
		if _, err := PartitionParallel(h, cfg, workers); err != nil {
			t.Fatal(err)
		}
		assertPopulated(t, fmt.Sprintf("parallel/%d", workers), kw)
	}
}
