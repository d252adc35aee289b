package core

import (
	"math"
	"sort"
)

// CostIndex is the per-matrix acceleration structure behind the
// architecture-aware fast scan. Real machine profiles are hierarchical —
// intra-socket, intra-node, inter-rack links form a handful of bandwidth
// tiers — so the profiled cost matrix C(i,j) is (near-)determined by which
// tier partitions i and j share. BuildCostIndex recovers that structure
// once per matrix:
//
//  1. The off-diagonal values are clustered into cost *levels*: maximal
//     runs of the sorted values separated by gaps larger than a fraction
//     of the span. A noiseless tiered matrix yields exactly its distinct
//     values; profiling noise widens each level without merging tiers.
//  2. Partitions are grouped into *blocks* by level-quantized row
//     equality: two partitions land in one block iff their cost rows are
//     level-identical off the diagonal — on a hierarchical machine, a
//     block is a socket (or node): its members are interchangeable
//     destinations up to noise.
//  3. Per block b the index stores the floor vector minC[b][j] =
//     min_{i∈b, i≠j} C(i,j). For any candidate i∈b the communication term
//     T_i(v) = Σ_j X_j(v)·C(i,j) is bounded below by Σ_j X_j·minC[b][j] —
//     a bound whose slack is only the *within-block* noise, where the
//     scalar bound min(C)·ΣX slacks by the full tier spread. When the
//     block is *exact* (all member rows equal off-diagonal and one
//     intra-block value, the noiseless case) the floor sum IS every
//     member's T_i, so a candidate's exact objective costs O(1) after the
//     O(|touched|) floor pass.
//  4. blockOrder[j] lists blocks in ascending minC[·][j], so the
//     candidate walk for a vertex whose neighbour mass concentrates in
//     partition j* visits comm-cheap blocks first and prunes the rest
//     against the incumbent.
//
// Matrices without usable structure degrade explicitly: a uniform matrix
// selects the single-heap scan, and a featureless one (a single level, or
// too many blocks) the exhaustive scan. The index is immutable after
// construction and safe to share: core.New accepts a prebuilt index via
// Config.Index so the serving layer builds it once per cached
// Environment. A multi-worker Partitioner additionally consumes blockOf as
// its work-ownership key: when the matrix is blocked with at least one
// block per worker, each superstep assigns whole blocks to workers so a
// vertex is streamed by the worker owning its current block (see
// superstep.go).
type CostIndex struct {
	p    int
	kind costKind

	// uniformC is the off-diagonal constant when kind == costUniform.
	uniformC float64

	// levels is the number of cost levels detected (1 for uniform,
	// 2–3 for the synthetic tier matrices, a few for profiled machines).
	levels int

	// Block structure (kind == costBlocked).
	blocks  []costBlock
	blockOf []int32
	// floorsTo[j][b] = min over members i of block b (i ≠ j) of C(i,j) —
	// the per-block floor vectors stored transposed, so the scan can
	// accumulate every block's floor sum in one contiguous pass per
	// touched partition. The vacuous single-member case floorsTo[j][{j}]
	// holds vacuousFloor (a huge finite value, so the bound arithmetic
	// stays NaN-free and the block is skipped).
	floorsTo [][]float64
	// blockOrder[j] lists block ids in ascending floorsTo[j][·] (ties by
	// id).
	blockOrder [][]int32

	// sig identifies the matrix the index was built from (the backing
	// array of its first row), so New can reject an index paired with a
	// different matrix instead of silently mis-pruning.
	sig *float64
}

// costBlock is one group of (near-)interchangeable destination partitions.
type costBlock struct {
	members []int32
	// exact reports that every member row is float-identical off the
	// diagonal and all intra-block entries equal one value: the floor sum
	// then equals every member's communication term bit for bit.
	exact bool
}

// costKind selects the candidate-scan strategy for a matrix.
type costKind int

const (
	// costUniform: one off-diagonal value; the single min-load heap pop of
	// pickUniform is exact.
	costUniform costKind = iota
	// costBlocked: hierarchical/low-rank structure detected; the tiered
	// block walk of pickBlocked applies.
	costBlocked
	// costUnstructured: no usable structure; every vertex takes the
	// exhaustive scan (pickExhaustive).
	costUnstructured
)

const (
	// levelGapFrac: a gap between consecutive sorted off-diagonal values
	// larger than this fraction of the full span separates two cost
	// levels. Profiling noise spreads a tier into a continuum of closely
	// spaced values; gaps between tiers are an order of magnitude wider.
	levelGapFrac = 0.04
	// maxCostLevels caps the level count; beyond it the matrix has no
	// tier structure worth indexing.
	maxCostLevels = 32
	// blockDetectBudgetFactor bounds block detection to this many
	// element comparisons per matrix entry; genuinely blocky matrices
	// mismatch far earlier, featureless ones abort to costUnstructured.
	blockDetectBudgetFactor = 32
	// vacuousFloor fills the undefined floor of a single-member block
	// toward its own member: large enough that the bound always rejects
	// the block, finite so the margin arithmetic never produces NaN.
	vacuousFloor = 1e30
)

// maxBlocksFor is the largest useful block count: the block walk pays
// O(B) per vertex, so B must stay well under p for the scan to win.
func maxBlocksFor(p int) int {
	b := p / 8
	if b < 4 {
		b = 4
	}
	return b
}

// BuildCostIndex classifies cost and precomputes the structure the fast
// candidate scans need. It is deterministic, read-only on cost, and
// O(p² log p) worst case; callers that reuse one matrix across runs (the
// serving layer's cached Environments) should build once and pass the
// index through Config.Index.
func BuildCostIndex(cost [][]float64) *CostIndex {
	p := len(cost)
	uniform, uniformC := costStructure(cost)
	idx := &CostIndex{p: p, kind: costUnstructured, uniformC: uniformC, levels: 1}
	if p > 0 {
		idx.sig = &cost[0][0]
	}
	if uniform {
		idx.kind = costUniform
		return idx
	}

	boundaries, levels := costLevels(cost)
	idx.levels = levels
	if levels < 2 || levels > maxCostLevels {
		return idx // featureless or noise-dominated: exhaustive scan
	}
	lvl := quantizeLevels(cost, boundaries)
	blockOf, nblocks, ok := detectBlocks(lvl, p)
	if !ok || nblocks < 2 {
		return idx
	}

	idx.kind = costBlocked
	idx.blockOf = blockOf
	idx.blocks = make([]costBlock, nblocks)
	for i, b := range blockOf {
		idx.blocks[b].members = append(idx.blocks[b].members, int32(i))
	}
	for b := range idx.blocks {
		idx.blocks[b].exact = blockIsExact(cost, idx.blocks[b].members)
	}
	idx.floorsTo = buildBlockFloors(cost, idx.blocks)
	idx.blockOrder = buildBlockOrder(idx.floorsTo, nblocks)
	return idx
}

// costStructure reports whether every off-diagonal entry of the cost
// matrix is one constant c (HyperPRAW-basic and the uniform benchmarks),
// which the uniform touched-only scan needs.
func costStructure(cost [][]float64) (uniform bool, c float64) {
	first := true
	for i, row := range cost {
		for j, cij := range row {
			if i == j {
				continue
			}
			if first {
				c, first = cij, false
			} else if cij != c {
				return false, c
			}
		}
	}
	return true, c
}

// matches reports whether the index was built from this exact matrix
// instance (same backing storage and dimension). A deep-equal copy fails
// the check and triggers a rebuild — cheap insurance against pairing an
// index with the wrong matrix, which would silently break move parity.
func (ci *CostIndex) matches(cost [][]float64) bool {
	if ci == nil || ci.p != len(cost) || ci.p == 0 {
		return false
	}
	return ci.sig == &cost[0][0]
}

// Levels reports how many distinct cost levels the matrix clusters into
// (1 when uniform or featureless).
func (ci *CostIndex) Levels() int { return ci.levels }

// Blocks reports how many destination blocks were detected (0 unless the
// blocked strategy was selected).
func (ci *CostIndex) Blocks() int { return len(ci.blocks) }

// costLevels sorts every off-diagonal value and splits the sorted run at
// gaps wider than levelGapFrac of the span. It returns the level
// boundaries (split midpoints, ascending) and the level count.
func costLevels(cost [][]float64) (boundaries []float64, levels int) {
	p := len(cost)
	vals := make([]float64, 0, p*(p-1))
	for i, row := range cost {
		for j, c := range row {
			if i != j {
				vals = append(vals, c)
			}
		}
	}
	if len(vals) == 0 {
		return nil, 1
	}
	sort.Float64s(vals)
	span := vals[len(vals)-1] - vals[0]
	if span <= 0 {
		return nil, 1
	}
	gap := span * levelGapFrac
	levels = 1
	for k := 1; k < len(vals); k++ {
		if vals[k]-vals[k-1] > gap {
			levels++
			boundaries = append(boundaries, (vals[k]+vals[k-1])/2)
			if levels > maxCostLevels {
				return nil, levels
			}
		}
	}
	return boundaries, levels
}

// quantizeLevels maps each off-diagonal entry to its level id (diagonal
// entries get 0; they are never compared). The flat p×p byte matrix keeps
// block detection cache-friendly.
func quantizeLevels(cost [][]float64, boundaries []float64) []uint8 {
	p := len(cost)
	lvl := make([]uint8, p*p)
	for i, row := range cost {
		base := i * p
		for j, c := range row {
			if i == j {
				continue
			}
			lo, hi := 0, len(boundaries)
			for lo < hi {
				mid := (lo + hi) / 2
				if c > boundaries[mid] {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			lvl[base+j] = uint8(lo)
		}
	}
	return lvl
}

// detectBlocks greedily groups partitions whose level-quantized rows are
// identical off the diagonal (positions belonging to either row of a
// compared pair are skipped). ok is false when the matrix exceeds the
// block cap or the comparison budget — i.e. it has no block structure.
func detectBlocks(lvl []uint8, p int) (blockOf []int32, nblocks int, ok bool) {
	maxBlocks := maxBlocksFor(p)
	budget := blockDetectBudgetFactor * p * p
	blockOf = make([]int32, p)
	reps := make([]int32, 0, maxBlocks)
	for i := 0; i < p; i++ {
		assigned := false
		for b, r := range reps {
			cost, eq := levelRowsEqual(lvl, p, i, int(r))
			budget -= cost
			if budget <= 0 {
				return nil, 0, false
			}
			if eq {
				blockOf[i] = int32(b)
				assigned = true
				break
			}
		}
		if !assigned {
			if len(reps) >= maxBlocks {
				return nil, 0, false
			}
			blockOf[i] = int32(len(reps))
			reps = append(reps, int32(i))
		}
	}
	return blockOf, len(reps), true
}

// levelRowsEqual compares rows a and r of the quantized matrix at every
// position except a and r themselves, returning the comparison count and
// the verdict.
func levelRowsEqual(lvl []uint8, p, a, r int) (work int, eq bool) {
	ra, rr := lvl[a*p:(a+1)*p], lvl[r*p:(r+1)*p]
	for j := 0; j < p; j++ {
		if j == a || j == r {
			continue
		}
		work++
		if ra[j] != rr[j] {
			return work, false
		}
	}
	return work, true
}

// blockIsExact verifies the two conditions that make the block floor sum
// a member's exact communication term: every member row equals the first
// member's row at all positions outside the block, and all intra-block
// off-diagonal entries share one value. Single-member blocks are exact
// trivially.
func blockIsExact(cost [][]float64, members []int32) bool {
	if len(members) == 1 {
		return true
	}
	inBlock := map[int32]bool{}
	for _, m := range members {
		inBlock[m] = true
	}
	rep := members[0]
	intra := cost[rep][members[1]]
	for _, a := range members {
		for _, b := range members {
			if a != b && cost[a][b] != intra {
				return false
			}
		}
		if a == rep {
			continue
		}
		for j := range cost[a] {
			if inBlock[int32(j)] {
				continue
			}
			if cost[a][j] != cost[rep][j] {
				return false
			}
		}
	}
	return true
}

// buildBlockFloors computes floorsTo[j][b] = min_{i∈b, i≠j} C(i,j): the
// tightest per-destination-block lower bound on any member's cost toward
// partition j, stored transposed for the scan's contiguous accumulation.
// The vacuous case (block {j} toward j) gets vacuousFloor.
func buildBlockFloors(cost [][]float64, blocks []costBlock) [][]float64 {
	p := len(cost)
	floorsTo := make([][]float64, p)
	for j := 0; j < p; j++ {
		floorsTo[j] = make([]float64, len(blocks))
	}
	for b, blk := range blocks {
		for j := 0; j < p; j++ {
			m := math.Inf(1)
			for _, i := range blk.members {
				if int(i) != j && cost[i][j] < m {
					m = cost[i][j]
				}
			}
			if math.IsInf(m, 1) {
				m = vacuousFloor
			}
			floorsTo[j][b] = m
		}
	}
	return floorsTo
}

// buildBlockOrder sorts, for every partition j, the block ids by
// ascending floorsTo[j][·] (ties by id): the walk order that reaches the
// comm-cheapest candidates for a vertex anchored at j first.
func buildBlockOrder(floorsTo [][]float64, nb int) [][]int32 {
	order := make([][]int32, len(floorsTo))
	for j := range floorsTo {
		ids := make([]int32, nb)
		for b := range ids {
			ids[b] = int32(b)
		}
		row := floorsTo[j]
		sort.SliceStable(ids, func(x, y int) bool {
			return row[ids[x]] < row[ids[y]]
		})
		order[j] = ids
	}
	return order
}
