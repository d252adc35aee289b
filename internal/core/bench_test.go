package core

import (
	"fmt"
	"testing"

	"hyperpraw/internal/hgen"
	"hyperpraw/internal/profile"
)

func benchInstance() (*Partitioner, error) {
	spec, _ := hgen.SpecByName("2cubes_sphere")
	h := hgen.Generate(spec.Scaled(0.005), 1)
	cfg := DefaultConfig(profile.UniformCost(32))
	cfg.MaxIterations = 10
	return New(h, cfg)
}

// BenchmarkRun measures a bounded full restreaming run (10 streams max).
func BenchmarkRun(b *testing.B) {
	pr, err := benchInstance()
	if err != nil {
		b.Fatal(err)
	}
	defer pr.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.Run()
	}
}

// benchStream measures one full streaming pass in the restreaming regime
// that dominates a HyperPRAW run: the paper's histories (Fig 3) show a
// handful of tempering passes followed by 50–100 refinement passes, so the
// kernel's hot state is a *warm* partition where vertices and their
// neighbours have settled. The warm-up passes 1–10 run outside the timer;
// the measured pass streams every vertex of the warm state as pass 11, not
// as a first pass, which at one worker also builds the pair matrix of the
// convergence check. Baseline
// (exhaustive) and touched-only (fast) modes measure the identical workload,
// so their ns/op ratio is the kernel speedup reported in BENCH_core.json.
func benchStream(b *testing.B, name string, cost [][]float64, exhaustive bool) {
	spec, _ := hgen.SpecByName(name)
	h := hgen.Generate(spec.Scaled(0.05), 1)
	cfg := DefaultConfig(cost)
	cfg.forceExhaustive = exhaustive
	pr, err := New(h, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer pr.Release()
	pr.reset()
	w := pr.pool[0]
	alpha := pr.cfg.Alpha0 // New defaults Alpha0 into its own config copy
	for i := 0; i < 10; i++ {
		w.stream(i+1, alpha, false)
		alpha *= cfg.TemperFactor
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.stream(11, alpha, false)
	}
}

// BenchmarkStream is the kernel benchmark behind BENCH_core.json: a warm
// full streaming pass at p ∈ {8, 64, 256} partitions with the uniform cost
// matrix, exhaustive baseline vs touched-only scan in the same run. The
// instance is webbase-1M, the paper's largest: its power-law/low-degree
// structure is exactly the regime the touched-only scan targets, where each
// vertex's neighbours occupy a handful of partitions regardless of p.
func BenchmarkStream(b *testing.B) {
	for _, mode := range []string{"exhaustive", "fast"} {
		for _, p := range []int{8, 64, 256} {
			b.Run(fmt.Sprintf("%s/p=%d", mode, p), func(b *testing.B) {
				benchStream(b, "webbase-1M", profile.UniformCost(p), mode == "exhaustive")
			})
		}
	}
}

// BenchmarkStreamAware is BenchmarkStream for a profiled (non-uniform) cost
// matrix, where the fast mode is the tiered block walk used by
// HyperPRAW-aware: the Archer profile is hierarchical (sockets, nodes,
// blades) plus measurement noise, so the cost index detects near-exact
// blocks and prunes against their floor sums.
func BenchmarkStreamAware(b *testing.B) {
	for _, mode := range []string{"exhaustive", "fast"} {
		for _, p := range []int{64, 256} {
			b.Run(fmt.Sprintf("%s/p=%d", mode, p), func(b *testing.B) {
				benchStream(b, "webbase-1M", physCost(p, 1), mode == "exhaustive")
			})
		}
	}
}

// BenchmarkStreamAwareHier2 is the aware kernel on a noiseless two-tier
// machine profile (8-partition blocks, MachineSpec-style): every block is
// exact, so a candidate's objective is O(1) after the per-vertex floor
// pass. p=1024 probes the scale where the O(p) exhaustive scan hurts most.
func BenchmarkStreamAwareHier2(b *testing.B) {
	for _, mode := range []string{"exhaustive", "fast"} {
		for _, p := range []int{64, 256, 1024} {
			b.Run(fmt.Sprintf("%s/p=%d", mode, p), func(b *testing.B) {
				benchStream(b, "webbase-1M", hier2Cost(p), mode == "exhaustive")
			})
		}
	}
}

// BenchmarkStreamAwareHier3 is BenchmarkStreamAwareHier2 for a three-tier
// profile (sockets inside nodes), the shape of the paper's ARCHER machine
// without profiling noise.
func BenchmarkStreamAwareHier3(b *testing.B) {
	for _, mode := range []string{"exhaustive", "fast"} {
		for _, p := range []int{64, 256, 1024} {
			b.Run(fmt.Sprintf("%s/p=%d", mode, p), func(b *testing.B) {
				benchStream(b, "webbase-1M", hier3Cost(p), mode == "exhaustive")
			})
		}
	}
}

// BenchmarkStreamDense is the adversarial regime for the touched-only scan:
// 2cubes_sphere's FEM neighbourhoods (~16 incident edges of ~16 pins) touch
// a large fraction of the partitions, so the expected win is modest — the
// scan is designed to degrade toward the exhaustive baseline, not below it.
func BenchmarkStreamDense(b *testing.B) {
	for _, mode := range []string{"exhaustive", "fast"} {
		for _, p := range []int{256} {
			b.Run(fmt.Sprintf("%s/p=%d", mode, p), func(b *testing.B) {
				benchStream(b, "2cubes_sphere", profile.UniformCost(p), mode == "exhaustive")
			})
		}
	}
}

// BenchmarkSingleStream isolates one stream pass over all vertices,
// including the per-run setup Run performs around it.
func BenchmarkSingleStream(b *testing.B) {
	spec, _ := hgen.SpecByName("2cubes_sphere")
	h := hgen.Generate(spec.Scaled(0.005), 1)
	cfg := DefaultConfig(profile.UniformCost(32))
	cfg.MaxIterations = 1
	pr, err := New(h, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer pr.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.Run()
	}
}

// BenchmarkRunFrontier measures the bounded run with frontier restreaming
// enabled (most streams only revisit the moved frontier).
func BenchmarkRunFrontier(b *testing.B) {
	spec, _ := hgen.SpecByName("2cubes_sphere")
	h := hgen.Generate(spec.Scaled(0.005), 1)
	cfg := DefaultConfig(profile.UniformCost(32))
	cfg.MaxIterations = 10
	cfg.FrontierRestreaming = true
	pr, err := New(h, cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer pr.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.Run()
	}
}

// BenchmarkRunWideMachine measures full runs of a small hypergraph on a
// 1024-partition machine. Its neighbour pairs fill few of the p² cells of
// the convergence check's pair matrix, the regime in which a dense O(p²)
// sum per pass would cost more than the neighbourhood walk it replaces.
func BenchmarkRunWideMachine(b *testing.B) {
	h := randomHG(77, 1000, 1000, 8)
	for _, tc := range []struct {
		name string
		cost [][]float64
	}{{"uniform", profile.UniformCost(1024)}, {"hier2", hier2Cost(1024)}} {
		cfg := DefaultConfig(tc.cost)
		cfg.Index = BuildCostIndex(tc.cost)
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pr, err := New(h, cfg)
				if err != nil {
					b.Fatal(err)
				}
				pr.Run()
				pr.Release()
			}
		})
	}
}

// benchParallelStream measures one warm superstep — stream, barrier
// reductions, ownership rebalance — on a persistent worker pool: the unit
// benchStream measures plus the barrier's snapshot and convergence check.
// The w=1 sub-benchmark, the superstep of New and Run, is the baseline of
// the family's parallel_speedup curve in BENCH_core.json (ns/op at w=1 ÷
// ns/op at w=N).
func benchParallelStream(b *testing.B, name string, cost [][]float64, workers int) {
	spec, _ := hgen.SpecByName(name)
	h := hgen.Generate(spec.Scaled(0.05), 1)
	pr, err := newPartitioner(h, DefaultConfig(cost), workers)
	if err != nil {
		b.Fatal(err)
	}
	defer pr.Release()
	pr.reset()
	alpha := pr.cfg.Alpha0
	for i := 0; i < 10; i++ {
		pr.superstep(i+1, alpha, false)
		alpha *= pr.cfg.TemperFactor
	}
	// A few extra supersteps at the measured alpha push every lazily grown
	// buffer (argmin heaps, scanner scratch, runtime channel-park caches) to
	// its high-water mark before the timer starts, so short -benchtime runs
	// report the steady-state 0 allocs/op instead of one-time growth. They
	// and the measured supersteps run as pass 11, a refinement pass: at one
	// worker, pass 1 also builds the pair matrix.
	for i := 0; i < 4; i++ {
		pr.superstep(11, alpha, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.superstep(11, alpha, false)
	}
}

// BenchmarkParallelAwareHier2 sweeps the block-aligned parallel kernel over
// worker counts on the noiseless two-tier aware workload at p=256 (32 exact
// blocks of 8): ownership is block-aligned, so each worker's candidate scan
// and argmin caches stay within its own sockets' partitions.
func BenchmarkParallelAwareHier2(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w=%d/p=256", w), func(b *testing.B) {
			benchParallelStream(b, "webbase-1M", hier2Cost(256), w)
		})
	}
}

// BenchmarkParallelAwareHier3 is the three-tier analogue (sockets inside
// nodes), the shape of the paper's ARCHER machine without profiling noise.
func BenchmarkParallelAwareHier3(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w=%d/p=256", w), func(b *testing.B) {
			benchParallelStream(b, "webbase-1M", hier3Cost(256), w)
		})
	}
}

// BenchmarkParallelUniform sweeps the uniform-matrix workload, which has no
// block structure: ownership falls back to the round-robin stride and the
// speedup isolates the contention-free counters + parallel convergence check
// from the block-alignment effect.
func BenchmarkParallelUniform(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w=%d/p=256", w), func(b *testing.B) {
			benchParallelStream(b, "webbase-1M", profile.UniformCost(256), w)
		})
	}
}

// BenchmarkPartitionParallel4 measures the parallel variant at 4 workers.
func BenchmarkPartitionParallel4(b *testing.B) {
	spec, _ := hgen.SpecByName("2cubes_sphere")
	h := hgen.Generate(spec.Scaled(0.005), 1)
	cfg := DefaultConfig(profile.UniformCost(32))
	cfg.MaxIterations = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PartitionParallel(h, cfg, 4); err != nil {
			b.Fatal(err)
		}
	}
}
