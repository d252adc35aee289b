package core

import (
	"fmt"
	"testing"

	"hyperpraw/internal/profile"
	"hyperpraw/internal/stats"
)

// FuzzFastPicksMatchExhaustive is the kernel-equivalence property under a
// fuzzer: a small random hypergraph (vertex-weighted for even seeds), p
// from 32 to 80, one of five cost families and any combination of six
// options must give the touched-only scans the exhaustive reference's
// moves, pass for pass. The seed corpus under testdata/fuzz runs every
// family plain and with all options, and every option alone once; `go test
// -fuzz` explores beyond it.
//
// The arguments: seed draws the hypergraph and the noisy matrices; pSel
// picks p; family picks uniform, hier2Cost, hier3Cost, a noisy profiled
// physCost or fewDistinctCost; the bits of opts switch on a shuffled order,
// frontier restreaming, capacities, a warm start with a migration penalty,
// edge weights and StopAtTolerance.
func FuzzFastPicksMatchExhaustive(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, pSel, family, opts uint8) {
		p := 32 + int(pSel)%49
		nv := 4*p + int(seed%256)
		h := randomHG(seed, nv, nv*4/3, 8)
		var cost [][]float64
		var name string
		switch family % 5 {
		case 0:
			name, cost = "uniform", profile.UniformCost(p)
		case 1:
			name, cost = "hier2", hier2Cost(p)
		case 2:
			name, cost = "hier3", hier3Cost(p)
		case 3:
			name, cost = "phys", physCost(p, seed)
		default:
			name, cost = "fewdistinct", fewDistinctCost(p, seed)
		}
		cfg := DefaultConfig(cost)
		cfg.MaxIterations = 12
		if opts&1 != 0 {
			cfg.ShuffledOrder, cfg.Seed = true, seed
		}
		cfg.FrontierRestreaming = opts&2 != 0
		if opts&4 != 0 {
			rng := stats.NewRNG(seed ^ 0xca9)
			cfg.Capacities = make([]float64, p)
			for i := range cfg.Capacities {
				cfg.Capacities[i] = 0.5 + 2*rng.Float64()
			}
		}
		if opts&8 != 0 {
			cfg.InitialParts = make([]int32, nv)
			for v := range cfg.InitialParts {
				cfg.InitialParts[v] = int32((v * 7) % p)
			}
			cfg.MigrationPenalty = 0.5
		}
		cfg.UseEdgeWeights = opts&16 != 0
		if opts&32 != 0 {
			cfg.RefinementPolicy = StopAtTolerance
		}
		fast, ref := runPair(t, h, cfg)
		assertIdentical(t, fmt.Sprintf("seed=%d/p=%d/%s/opts=%#x", seed, p, name, opts&0x3f), fast, ref)
	})
}
