package core

// StreamStats counts what the streaming kernel actually did during a run:
// how often each candidate-scan strategy fired, how hard the pruning
// machinery worked, and how much of the work frontier mode avoided. The
// counters are bookkeeping only — collection never influences a move
// decision (the equivalence tests pin this), so a run with a stats sink is
// move-for-move identical to one without.
//
// Attach a sink via Config.Stats; Run accumulates into it (Add semantics,
// so one sink can aggregate several runs). The JSON shape is what the
// serving layer returns per job and feeds into /metrics.
type StreamStats struct {
	// Passes is the number of streams executed; FrontierPasses of those
	// visited only the moved-vertex frontier, touching FrontierVisited
	// vertices in total (the dirty-set sizes, summed).
	Passes          int64 `json:"passes"`
	FrontierPasses  int64 `json:"frontier_passes,omitempty"`
	FrontierVisited int64 `json:"frontier_visited,omitempty"`
	// Moves is the number of vertex reassignments across all passes.
	Moves int64 `json:"moves"`

	// Per-strategy vertex counts: which scan scored each visited vertex.
	// ScanExhaustive counts the O(p) reference scan — both its baseline
	// uses (small p, α ≤ 0, matrices without uniform or block structure)
	// and pruning fallbacks. ScanBounded is always 0: it counted a
	// scalar-bound scan for unstructured matrices that has been removed,
	// and stays because the benchmark in perfbench/ reads it.
	ScanExhaustive int64 `json:"scan_exhaustive,omitempty"`
	ScanUniform    int64 `json:"scan_uniform,omitempty"`
	ScanBounded    int64 `json:"scan_bounded,omitempty"`
	ScanBlocked    int64 `json:"scan_blocked,omitempty"`

	// ExhaustiveFallbacks counts vertices where a fast scan was eligible
	// but the adaptive per-stream kill switch had tripped, so the
	// exhaustive reference ran instead. A high ratio of fallbacks to fast
	// scans means the cost-tier index has stopped pruning.
	ExhaustiveFallbacks int64 `json:"exhaustive_fallbacks,omitempty"`

	// BlockedWork is the tiered scan's cost in exhaustive-candidate units.
	BlockedWork int64 `json:"blocked_work,omitempty"`
	// BlockRejections counts cost-tier blocks dismissed by the O(1) floor
	// bound; ExactSettles counts blocks settled by scoring a single member.
	BlockRejections int64 `json:"block_rejections,omitempty"`
	ExactSettles    int64 `json:"exact_settles,omitempty"`
	// TouchedPruned counts touched partitions the uniform and blocked
	// scans dismissed by their O(1) communication bound instead of paying
	// the O(|touched|) exact sum.
	TouchedPruned int64 `json:"touched_pruned,omitempty"`
}

// Add accumulates o into s.
func (s *StreamStats) Add(o StreamStats) {
	s.Passes += o.Passes
	s.FrontierPasses += o.FrontierPasses
	s.FrontierVisited += o.FrontierVisited
	s.Moves += o.Moves
	s.ScanExhaustive += o.ScanExhaustive
	s.ScanUniform += o.ScanUniform
	s.ScanBounded += o.ScanBounded
	s.ScanBlocked += o.ScanBlocked
	s.ExhaustiveFallbacks += o.ExhaustiveFallbacks
	s.BlockedWork += o.BlockedWork
	s.BlockRejections += o.BlockRejections
	s.ExactSettles += o.ExactSettles
	s.TouchedPruned += o.TouchedPruned
}

// IsZero reports whether no activity was recorded.
func (s StreamStats) IsZero() bool { return s == StreamStats{} }
