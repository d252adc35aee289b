package core

import (
	"runtime"
	"sync"
	"testing"

	"hyperpraw/internal/metrics"
	"hyperpraw/internal/profile"
)

// TestParallelMigrationPenaltyHoldsVertices checks that every worker count
// honours Config.MigrationPenalty: a penalty no load or communication term
// can outweigh keeps every vertex of a warm start where it is.
func TestParallelMigrationPenaltyHoldsVertices(t *testing.T) {
	h := randomHG(11, 400, 560, 6)
	p := 8
	initial := make([]int32, h.NumVertices())
	for v := range initial {
		initial[v] = int32((v * 3) % p)
	}
	cfg := DefaultConfig(profile.UniformCost(p))
	cfg.MaxIterations = 10
	cfg.InitialParts = initial
	cfg.MigrationPenalty = 1e12
	for _, workers := range []int{1, 2, 4} {
		out, err := PartitionParallel(h, cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		for v := range initial {
			if out.Parts[v] != initial[v] {
				t.Fatalf("w=%d: vertex %d moved from %d to %d", workers, v, initial[v], out.Parts[v])
			}
		}
	}
}

// TestNewStartsNoGoroutine pins that a one-worker Partitioner streams on
// the calling goroutine: New and Run without Release, as several callers
// use them, must leave no goroutine behind.
func TestNewStartsNoGoroutine(t *testing.T) {
	h := randomHG(16, 300, 420, 6)
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		pr, err := New(h, DefaultConfig(hier2Cost(32)))
		if err != nil {
			t.Fatal(err)
		}
		pr.Run()
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("%d goroutines after New and Run, %d before", after, before)
	}
}

// TestParallelInitialPartsSeeded proves PartitionParallel seeds from
// Config.InitialParts rather than round-robin: a run cancelled before its
// first stream must return exactly the seeded assignment.
func TestParallelInitialPartsSeeded(t *testing.T) {
	h := randomHG(12, 120, 150, 6)
	p := 8
	initial := make([]int32, h.NumVertices())
	for v := range initial {
		initial[v] = int32((v * 3) % p)
	}
	cfg := DefaultConfig(profile.UniformCost(p))
	cfg.InitialParts = initial
	cfg.Stop = func() bool { return true }
	out, err := PartitionParallel(h, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if out.Stopped != StoppedCanceled {
		t.Fatalf("stopped %v, want canceled before the first stream", out.Stopped)
	}
	for v := range initial {
		if out.Parts[v] != initial[v] {
			t.Fatalf("vertex %d: %d, want seeded %d", v, out.Parts[v], initial[v])
		}
	}
}

// TestParallelBlockOwnershipCoversWorkers checks the LPT rebalancer on a
// blocked matrix: ownership is block-aligned, every block has an owner in
// range, and with more blocks than workers every worker owns at least one
// block (no worker idles while peers stream).
func TestParallelBlockOwnershipCoversWorkers(t *testing.T) {
	h := randomHG(13, 600, 800, 8)
	workers := 4
	pr, err := newPartitioner(h, DefaultConfig(hier2Cost(64)), workers) // 8 blocks of 8
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Release()
	pr.reset()
	if !pr.blockAligned {
		t.Fatalf("hier2 p=64 not block-aligned (kind=%d blocks=%d)", pr.cidx.kind, len(pr.cidx.blocks))
	}
	owned := make([]int, workers)
	for b, w := range pr.blockOwner {
		if w < 0 || int(w) >= workers {
			t.Fatalf("block %d owned by out-of-range worker %d", b, w)
		}
		owned[w]++
	}
	for w, n := range owned {
		if n == 0 {
			t.Fatalf("worker %d owns no blocks (owners %v)", w, pr.blockOwner)
		}
	}
}

// TestParallelBlockRebalanceRace drives the per-superstep block rebalancer
// concurrently with streaming under -race: several block-aligned frontier
// runs in flight at once, each rebalancing ownership between barriers while
// its workers stream, gather, and mark shared dirty stamps. Failures here
// are data races or invalid partitions, not quality.
func TestParallelBlockRebalanceRace(t *testing.T) {
	h := randomHG(14, 900, 1300, 8)
	cfg := DefaultConfig(hier2Cost(64))
	cfg.MaxIterations = 30
	cfg.FrontierRestreaming = true
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := PartitionParallel(h, cfg, 4)
			if err == nil {
				err = metrics.ValidatePartition(h, out.Parts, 64)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

// TestParallelSuperstepDoesNotAllocate pins the 0 allocs/op contract of the
// streaming superstep: after warm-up, a full stream + collect + scan cycle
// must not allocate on the driver goroutine (worker goroutines are covered
// by the -benchmem gate on the parallel benchmark family).
func TestParallelSuperstepDoesNotAllocate(t *testing.T) {
	h := randomHG(15, 800, 1100, 8)
	pr, err := newPartitioner(h, DefaultConfig(hier2Cost(64)), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Release()
	pr.reset()
	alpha := pr.cfg.Alpha0
	for i := 0; i < 3; i++ {
		pr.superstep(1, alpha, false)
	}
	avg := testing.AllocsPerRun(10, func() {
		pr.superstep(1, alpha, false)
	})
	if avg != 0 {
		t.Fatalf("superstep allocates %.1f objects/op on the driver, want 0", avg)
	}
}
