package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that has at least beyond
// samples above it — the (n-beyond)th smallest value — together with that
// percentile. With n <= beyond no such percentile exists and ok is false.
func tail(xs []float64, beyond int) (value, percentile float64, ok bool) {
	n := len(xs)
	if n <= beyond {
		return 0, 0, false
	}
	s := sorted(xs)
	rank := n - beyond // 1-based rank of the value: beyond samples lie above it
	return s[rank-1], 100 * float64(rank) / float64(n), true
}

// percentile returns the nearest-rank q-th percentile of xs (0 < q <= 100);
// 0 for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(q / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// windowedTail splits xs, in arrival order, into windows equal runs and
// returns the median over the windows of each one's tail (see tail). One
// stall of the host lifts the samples of a single window only, so the
// median over windows reports the system's tail rather than the one
// stall. percentile is the first window's; the windows differ in size by
// at most one sample.
func windowedTail(xs []float64, windows, beyond int) (value, percentile float64, ok bool) {
	if windows < 1 || len(xs)/windows <= beyond {
		return 0, 0, false
	}
	var vals []float64
	for w := 0; w < windows; w++ {
		v, p, _ := tail(xs[w*len(xs)/windows:(w+1)*len(xs)/windows], beyond)
		if w == 0 {
			percentile = p
		}
		vals = append(vals, v)
	}
	return median(vals), percentile, true
}

// geomean is the geometric mean of strictly positive xs; it returns 0 when
// xs is empty or holds a non-positive value.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// openLoopLatency is how long a request waited from the moment it was
// due until its result was in hand: a stalled generator or client
// delays later requests, and timing from the due time charges that wait
// to the system instead of hiding it.
func openLoopLatency(due, done time.Time) time.Duration { return done.Sub(due) }

// lateness is how far behind schedule the generator issued a request;
// zero when it was on time (or early).
func lateness(due, sent time.Time) time.Duration {
	if d := sent.Sub(due); d > 0 {
		return d
	}
	return 0
}

// ladderSteps turns per-depth medians (depth 1 innermost) into each
// layer's own cost: the difference between a depth and the one below it.
// The first entry is depth 1 itself.
func ladderSteps(depths []float64) []float64 {
	out := make([]float64, len(depths))
	for i, d := range depths {
		if i == 0 {
			out[i] = d
			continue
		}
		out[i] = d - depths[i-1]
	}
	return out
}
