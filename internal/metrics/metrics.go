// Package metrics computes partition quality metrics: the cut-based metrics
// hypergraph partitioners traditionally optimise (hyperedge cut, sum of
// external degrees) and the paper's architecture-sensitive "partitioning
// communication cost" (eq 5), which weighs each cross-partition neighbour
// relation by the physical cost of the link between the two partitions.
package metrics

import (
	"fmt"

	"hyperpraw/internal/hypergraph"
)

// ValidatePartition checks that parts assigns every vertex of h to a
// partition in [0, k).
func ValidatePartition(h *hypergraph.Hypergraph, parts []int32, k int) error {
	if len(parts) != h.NumVertices() {
		return fmt.Errorf("metrics: partition length %d, want %d vertices", len(parts), h.NumVertices())
	}
	if k <= 0 {
		return fmt.Errorf("metrics: non-positive partition count %d", k)
	}
	for v, p := range parts {
		if p < 0 || int(p) >= k {
			return fmt.Errorf("metrics: vertex %d assigned to partition %d, want [0,%d)", v, p, k)
		}
	}
	return nil
}

// Loads returns the total vertex weight assigned to each partition.
func Loads(h *hypergraph.Hypergraph, parts []int32, k int) []int64 {
	loads := make([]int64, k)
	for v := 0; v < h.NumVertices(); v++ {
		loads[parts[v]] += h.VertexWeight(v)
	}
	return loads
}

// Imbalance returns the paper's total imbalance: the maximum partition load
// divided by the mean partition load. A perfectly balanced partition scores
// 1.0; the metric is always >= 1 for a non-empty hypergraph.
func Imbalance(loads []int64) float64 {
	if len(loads) == 0 {
		return 1
	}
	var total, max int64
	for _, l := range loads {
		total += l
		if l > max {
			max = l
		}
	}
	if total == 0 {
		return 1
	}
	mean := float64(total) / float64(len(loads))
	return float64(max) / mean
}

// Connectivity returns λ(e): the number of distinct partitions among the
// pins of hyperedge e. scratch must be a slice of length >= k reused across
// calls with epoch-style stamping; pass nil to allocate internally.
func Connectivity(h *hypergraph.Hypergraph, parts []int32, k, e int) int {
	seen := make([]bool, k)
	lambda := 0
	for _, v := range h.Pins(e) {
		p := parts[v]
		if !seen[p] {
			seen[p] = true
			lambda++
		}
	}
	return lambda
}

// edgeScanner computes per-edge connectivity with O(1) amortised clearing.
type edgeScanner struct {
	stamp []int
	epoch int
}

func newEdgeScanner(k int) *edgeScanner {
	return &edgeScanner{stamp: make([]int, k)}
}

func (s *edgeScanner) lambda(h *hypergraph.Hypergraph, parts []int32, e int) int {
	s.epoch++
	lambda := 0
	for _, v := range h.Pins(e) {
		p := parts[v]
		if s.stamp[p] != s.epoch {
			s.stamp[p] = s.epoch
			lambda++
		}
	}
	return lambda
}

// HyperedgeCut returns the weighted count of hyperedges that span more than
// one partition (the paper's "hyperedge cut", Fig 4A).
func HyperedgeCut(h *hypergraph.Hypergraph, parts []int32, k int) int64 {
	sc := newEdgeScanner(k)
	var cut int64
	for e := 0; e < h.NumEdges(); e++ {
		if sc.lambda(h, parts, e) > 1 {
			cut += h.EdgeWeight(e)
		}
	}
	return cut
}

// SOED returns the Sum Of External Degrees (Fig 4B): every hyperedge that
// spans λ > 1 partitions is incident-but-not-internal to each of those λ
// partitions, contributing λ·w(e).
func SOED(h *hypergraph.Hypergraph, parts []int32, k int) int64 {
	sc := newEdgeScanner(k)
	var soed int64
	for e := 0; e < h.NumEdges(); e++ {
		if l := sc.lambda(h, parts, e); l > 1 {
			soed += int64(l) * h.EdgeWeight(e)
		}
	}
	return soed
}

// ConnectivityMinusOne returns the (λ−1) metric, Σ_e w(e)·(λ(e)−1): the
// standard proxy for total communication volume in the hypergraph
// partitioning literature. Reported alongside the paper's metrics for
// completeness.
func ConnectivityMinusOne(h *hypergraph.Hypergraph, parts []int32, k int) int64 {
	sc := newEdgeScanner(k)
	var total int64
	for e := 0; e < h.NumEdges(); e++ {
		if l := sc.lambda(h, parts, e); l > 1 {
			total += int64(l-1) * h.EdgeWeight(e)
		}
	}
	return total
}

// CommCost returns the partitioning communication cost PC(P) of eq 5:
//
//	PC(P) = Σ_i Σ_{v ∈ P_i} T_i(v),   T_i(v) = Σ_j X_j(v)·C(i,j)
//
// where X_j(v) counts the distinct neighbours of v (vertices sharing a
// hyperedge) residing in partition j and C is the (physical or uniform) cost
// matrix with zero diagonal. Intuitively it is the number of cross-partition
// neighbour relations, each weighted by how expensive the link between the
// two partitions is.
//
// It is the reference evaluation, walking every vertex's neighbourhood;
// the restreaming kernel monitors the same quantity incrementally.
func CommCost(h *hypergraph.Hypergraph, parts []int32, cost [][]float64) float64 {
	k := len(cost)
	nv := h.NumVertices()
	// Epoch stamps make the distinct-neighbour count O(1) to clear per
	// vertex: epoch v+1 marks v's neighbourhood.
	vstamp := make([]int, nv)
	pstamp := make([]int, k)
	counts := make([]float64, k)
	var touched []int32

	total := 0.0
	for v := 0; v < nv; v++ {
		epoch := v + 1
		vstamp[v] = epoch // never count v as its own neighbour
		touched = touched[:0]
		home := parts[v]
		for _, e := range h.IncidentEdges(v) {
			for _, u := range h.Pins(int(e)) {
				if vstamp[u] == epoch {
					continue
				}
				vstamp[u] = epoch
				p := parts[u]
				if pstamp[p] != epoch {
					pstamp[p] = epoch
					counts[p] = 0
					touched = append(touched, p)
				}
				counts[p]++
			}
		}
		for _, p := range touched {
			total += counts[p] * cost[home][p]
		}
	}
	return total
}

// WeightedCommCost is the hyperedge-weighted variant of CommCost used with
// the paper's §8.2 extension for asymmetric communication: every
// (hyperedge, neighbour) incidence contributes w(e)·C(part(v), part(u))
// rather than counting each distinct neighbour once. With unit weights it
// still differs from CommCost by counting a neighbour once per shared edge,
// which models per-edge communication volume. It allocates nothing.
func WeightedCommCost(h *hypergraph.Hypergraph, parts []int32, cost [][]float64) float64 {
	total := 0.0
	for e := 0; e < h.NumEdges(); e++ {
		w := float64(h.EdgeWeight(e))
		pins := h.Pins(e)
		for _, u := range pins {
			cu := cost[parts[u]]
			for _, x := range pins {
				if x != u {
					total += w * cu[parts[x]]
				}
			}
		}
	}
	return total
}

// QualityReport bundles every quality metric for one partition, as reported
// in Fig 4.
type QualityReport struct {
	Algorithm      string
	Hypergraph     string
	K              int
	HyperedgeCut   int64
	SOED           int64
	LambdaMinusOne int64
	CommCost       float64 // PC(P) with the physical cost matrix
	Imbalance      float64
}

// Evaluate computes a full QualityReport for parts with the given physical
// cost matrix.
func Evaluate(h *hypergraph.Hypergraph, parts []int32, cost [][]float64) QualityReport {
	k := len(cost)
	return QualityReport{
		Hypergraph:     h.Name(),
		K:              k,
		HyperedgeCut:   HyperedgeCut(h, parts, k),
		SOED:           SOED(h, parts, k),
		LambdaMinusOne: ConnectivityMinusOne(h, parts, k),
		CommCost:       CommCost(h, parts, cost),
		Imbalance:      Imbalance(Loads(h, parts, k)),
	}
}
