package hyperpraw

import (
	"hyperpraw/internal/core"
	"hyperpraw/internal/hier"
	"hyperpraw/internal/hypergraph"
	"hyperpraw/internal/mapping"
)

// This file extends the facade with the repository's additions beyond the
// paper's headline algorithm: topology mapping (the related-work
// alternative), parallel restreaming (§8.2 future work), and repartitioning
// with migration costs.

// MapToTopology relabels an existing partition onto the machine's ranks so
// heavy-communicating partition pairs land on fast links (LibTopoMap-style;
// see internal/mapping). Cut metrics are unchanged; only placement moves.
func MapToTopology(h *Hypergraph, parts []int32, m *Machine, env Environment) ([]int32, error) {
	return mapping.MapPartition(h, parts, m, env.PhysCost, mapping.DefaultConfig())
}

// PartitionAwareParallel is PartitionAware using the parallel restreaming
// variant (one concurrent stream per worker, GraSP-style: workers stream
// against a slightly stale shared view, reconciled at superstep barriers).
// workers <= 0 selects GOMAXPROCS. PartitionAware runs the same superstep
// driver with one worker, so with one worker the result is PartitionAware's
// move for move; with more the result is valid but not run-to-run
// deterministic. At the core level every worker count honours every
// Config option, warm starts and migration penalties included.
func PartitionAwareParallel(h *Hypergraph, env Environment, opts *Options, workers int) ([]int32, PartitionResult, error) {
	o := opts.orDefault()
	res, err := core.PartitionParallel(h, prawConfig(env.PhysCost, env.physIndex, o), workers)
	if err != nil {
		return nil, PartitionResult{}, err
	}
	return res.Parts, res, nil
}

// Repartition restreams starting from an existing assignment, charging
// migrationPenalty per unit of vertex weight moved away from its current
// partition (the dynamic load-balancing scenario of the paper's related
// work [6,7]). A zero penalty reduces to a warm-started PartitionAware.
func Repartition(h *Hypergraph, current []int32, env Environment, migrationPenalty float64, opts *Options) ([]int32, PartitionResult, error) {
	o := opts.orDefault()
	cfg := prawConfig(env.PhysCost, env.physIndex, o)
	cfg.InitialParts = current
	cfg.MigrationPenalty = migrationPenalty
	pr, err := core.New(h, cfg)
	if err != nil {
		return nil, PartitionResult{}, err
	}
	defer pr.Release()
	res := pr.Run()
	return res.Parts, res, nil
}

// PartitionHierarchical partitions h across the machine's hierarchy in
// Zoltan's hierarchical style (related work §2): a coarse multilevel phase
// across nodes, then a fine phase across each node's cores. Architecture
// awareness here is qualitative (which ranks share a node), not quantitative
// (profiled link costs) — the contrast the paper draws with HyperPRAW.
func PartitionHierarchical(h *Hypergraph, m *Machine, opts *Options) ([]int32, error) {
	o := opts.orDefault()
	cfg := hier.DefaultConfig()
	cfg.ImbalanceTolerance = o.ImbalanceTolerance
	cfg.Seed = o.Seed
	return hier.Partition(h, m, cfg)
}

// SavePartitionVector writes a partition assignment (one line per vertex).
func SavePartitionVector(path string, parts []int32) error {
	return hypergraph.SavePartition(path, parts)
}

// LoadPartitionVector reads a partition assignment written by
// SavePartitionVector (or by hMetis/PaToH tooling).
func LoadPartitionVector(path string) ([]int32, error) {
	return hypergraph.LoadPartition(path)
}
