package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"hyperpraw"
	"hyperpraw/client"
	"hyperpraw/internal/core"
	"hyperpraw/internal/service"
)

// ladderDepths name the five depths one request is issued at, innermost
// first; a layer's cost is its depth's time minus the depth below.
var ladderDepths = []string{"core", "facade", "service", "http", "gateway"}

// ladderReps is how often each request is repeated per depth; the
// median is kept.
const ladderReps = 7

// runLadder issues a fixed sample of serve-open requests at every depth:
//  1. core.New + Run (plus the evaluation and simulation the service does)
//  2. the facade (same evaluation and simulation)
//  3. in-process service.Submit -> Wait
//  4. hpserve over HTTP (submit, SSE done frame, result)
//  5. hpgate in front of it
//
// Each serving depth uses a distinct options seed per repetition so every
// request misses the result caches (the seed only steers the multilevel
// baseline, so the partition is unchanged). Every depth must return the
// same partition.
func runLadder(cfg runCfg, o *outcome) error {
	ctx := context.Background()
	// One graph per serving kind, sized for its partition count.
	var pool []poolGraph
	for i, cb := range serveCombos {
		g, _, err := genPool(cfg.seed+3<<40+uint64(i), 1, 20*cb.p, fmt.Sprintf("ladder%d", i))
		if err != nil {
			return err
		}
		pool = append(pool, g...)
	}
	c, err := startCluster(clusterCfg{})
	if err != nil {
		return err
	}
	defer c.close()
	for _, g := range pool {
		if _, err := c.cli.IngestHypergraph(ctx, g.text, g.h.Name()); err != nil {
			return fmt.Errorf("ladder upload: %w", err)
		}
		for _, b := range c.backends {
			_, release, err := b.graphs.Put(g.h)
			if err != nil {
				return err
			}
			release()
		}
	}
	directTransport := newCountingTransport(2)
	defer directTransport.CloseIdleConnections()
	direct := client.New(c.backends[0].url, &http.Client{Transport: directTransport})
	envs := newEnvCache()
	idx := map[string]*core.CostIndex{}
	seedN := uint64(1000)
	// Round 0 warms every depth; round 1 is timed.
	for round := 0; round < 2; round++ {
		times := make([][]float64, len(ladderDepths))
		for i, g := range pool {
			cb := serveCombos[i]
			for r := 0; r < ladderReps; r++ {
				var ref uint64
				for d := range ladderDepths {
					seedN++
					t, parts, err := ladderStep(ctx, d, g, cb, seedN, envs, idx, c, direct)
					if err != nil {
						return fmt.Errorf("ladder depth %s: %w", ladderDepths[d], err)
					}
					if h := hashParts(parts); d == 0 {
						ref = h
					} else if h != ref {
						o.problem("ladder: depth %s returned a different partition than core", ladderDepths[d])
					}
					times[d] = append(times[d], t)
				}
			}
		}
		if round == 0 {
			continue
		}
		// Median per request and depth, then the mean step over requests.
		steps := make([]float64, len(ladderDepths))
		for i := range pool {
			med := make([]float64, len(ladderDepths))
			for d := range ladderDepths {
				med[d] = median(times[d][i*ladderReps : (i+1)*ladderReps])
			}
			for d, s := range ladderSteps(med) {
				steps[d] += s / float64(len(pool))
			}
		}
		for d, name := range ladderDepths {
			o.setLayer("ladder."+name+"_s", steps[d], "s")
		}
	}
	return nil
}

// ladderStep runs one request at depth d and returns its wall time and
// partition.
func ladderStep(ctx context.Context, d int, g poolGraph, cb combo, optSeed uint64,
	envs *envCache, idx map[string]*core.CostIndex, c *cluster, direct *client.Client) (float64, []int32, error) {
	m, env := envs.get(cb.kind, cb.p)
	wire := wireFor(g, cb)
	wire.Options.Seed = optSeed
	switch d {
	case 0:
		cost, key := env.PhysCost, machineKey(cb.kind, cb.p)+"/phys"
		if cb.algo == "oblivious" {
			cost, key = env.UniformCost, machineKey(cb.kind, cb.p)+"/uniform"
		}
		if idx[key] == nil {
			idx[key] = core.BuildCostIndex(cost)
		}
		cfg := core.DefaultConfig(cost)
		cfg.Index = idx[key]
		cfg.RefinementPolicy = core.StopAtTolerance
		t := time.Now()
		pr, err := core.New(g.h, cfg)
		if err != nil {
			return 0, nil, err
		}
		res := pr.Run()
		pr.Release()
		hyperpraw.Evaluate(g.h, res.Parts, env)
		if _, err := hyperpraw.SimulateBenchmark(m, g.h, res.Parts, nil); err != nil {
			return 0, nil, err
		}
		return time.Since(t).Seconds(), res.Parts, nil
	case 1:
		t := time.Now()
		var parts []int32
		var err error
		opts := wire.Options.Options()
		if cb.algo == "oblivious" {
			parts, _, err = hyperpraw.PartitionBasic(g.h, env, opts)
		} else {
			parts, _, err = hyperpraw.PartitionAware(g.h, env, opts)
		}
		if err != nil {
			return 0, nil, err
		}
		hyperpraw.Evaluate(g.h, parts, env)
		if _, err := hyperpraw.SimulateBenchmark(m, g.h, parts, nil); err != nil {
			return 0, nil, err
		}
		return time.Since(t).Seconds(), parts, nil
	case 2:
		req, err := service.ParseRequest(wire)
		if err != nil {
			return 0, nil, err
		}
		svc := c.backends[0].svc
		t := time.Now()
		info, err := svc.Submit(req)
		if err != nil {
			return 0, nil, err
		}
		res, info, err := svc.Wait(ctx, info.ID)
		d := time.Since(t).Seconds()
		if err != nil {
			return 0, nil, err
		}
		if res == nil {
			return 0, nil, fmt.Errorf("job %s ended %s: %s", info.ID, info.Status, info.Error)
		}
		return d, res.Parts, nil
	case 3, 4:
		cli := c.cli
		if d == 3 {
			cli = direct
		}
		t := time.Now()
		sj, err := runServed(ctx, cli, wire, nil, -1, -1)
		if err != nil {
			return 0, nil, err
		}
		return time.Since(t).Seconds(), sj.res.Parts, nil
	}
	return 0, nil, fmt.Errorf("no depth %d", d)
}
