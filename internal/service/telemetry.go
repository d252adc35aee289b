package service

import (
	"errors"
	"runtime"
	"time"

	"hyperpraw"
	"hyperpraw/internal/telemetry"
)

// serviceMetrics bundles the backend tier's instruments. It is always
// constructed (New never leaves it nil); with a nil registry every
// instrument inside is nil and every recording method no-ops, so the rest
// of the service records unconditionally without guarding on "is telemetry
// on".
type serviceMetrics struct {
	reg   *telemetry.Registry
	http  *telemetry.HTTPMetrics
	start time.Time

	jobsSubmitted  *telemetry.Counter
	jobsCompleted  *telemetry.CounterVec   // status: done | failed | deadline
	jobsRejected   *telemetry.CounterVec   // reason: queue_full | inflight_bytes | closed | unknown_graph
	stageSeconds   *telemetry.HistogramVec // stage: queue_wait | profile | partition | total
	sseSubscribers *telemetry.Gauge

	storeAppend  *telemetry.Histogram
	storeCompact *telemetry.Histogram

	kernel *telemetry.CounterVec // event: passes, moves, scan_* ...
}

// newServiceMetrics registers the service's metric families on reg and
// wires the sampled (func-backed) series to s. Gauge and counter funcs run
// at collection time only, so taking s.mu or a cache's lock inside them is
// fine — /metrics scrapes are rare next to job traffic.
func newServiceMetrics(reg *telemetry.Registry, s *Service) *serviceMetrics {
	m := &serviceMetrics{reg: reg, start: time.Now()}
	if reg == nil {
		return m
	}
	m.http = telemetry.NewHTTPMetrics(reg, "hyperpraw")

	reg.GaugeFunc("hyperpraw_queue_depth",
		"Jobs currently waiting in the submission queue.",
		func() float64 { return float64(len(s.queue)) })
	reg.Gauge("hyperpraw_queue_capacity",
		"Configured submission queue capacity.").Set(float64(s.cfg.QueueDepth))
	reg.Gauge("hyperpraw_workers",
		"Size of the partitioning worker pool.").Set(float64(s.cfg.Workers))
	reg.GaugeFunc("hyperpraw_jobs_tracked", "Jobs retained in the status table.",
		func() float64 {
			s.mu.Lock()
			n := len(s.jobs)
			s.mu.Unlock()
			return float64(n)
		})
	reg.GaugeFunc("hyperpraw_inflight_bytes",
		"Inline-upload payload bytes held by queued and running jobs (the "+
			"quantity bounded by -max-inflight-bytes).",
		func() float64 {
			s.mu.Lock()
			n := s.inflight
			s.mu.Unlock()
			return float64(n)
		})
	reg.Gauge("hyperpraw_inflight_bytes_capacity",
		"Configured -max-inflight-bytes admission bound; 0 means unlimited.").
		Set(float64(s.cfg.MaxInflightBytes))
	reg.GaugeFunc("hyperpraw_retry_after_seconds",
		"Retry-After hint currently served with 429/503 rejections, derived "+
			"from recent queue waits.",
		func() float64 { return float64(s.RetryAfter()) })

	m.jobsSubmitted = reg.Counter("hyperpraw_jobs_submitted_total",
		"Jobs accepted into the queue.")
	m.jobsCompleted = reg.CounterVec("hyperpraw_jobs_completed_total",
		"Jobs that reached a terminal state, by outcome.", "status")
	m.jobsRejected = reg.CounterVec("hyperpraw_jobs_rejected_total",
		"Submissions turned away, by reason.", "reason")
	m.stageSeconds = reg.HistogramVec("hyperpraw_job_stage_seconds",
		"Per-stage job latency: queue_wait (submit to worker pickup), profile "+
			"(machine bandwidth profiling on env-cache miss), partition (the "+
			"kernel run on result-cache miss), total (submit to finish).",
		telemetry.DefBuckets, "stage")
	m.sseSubscribers = reg.Gauge("hyperpraw_sse_subscribers",
		"Progress event streams currently open.")

	caches := []struct {
		label string
		stats func() hyperpraw.CacheStats
	}{
		{"env", s.envs.Stats},
		{"result", s.results.Stats},
	}
	hits := reg.CounterVec("hyperpraw_cache_hits_total",
		"Cache lookups served from memory, by cache.", "cache")
	misses := reg.CounterVec("hyperpraw_cache_misses_total",
		"Cache lookups that had to compute, by cache.", "cache")
	evictions := reg.CounterVec("hyperpraw_cache_evictions_total",
		"Cache entries dropped by the LRU bound, by cache.", "cache")
	for _, c := range caches {
		stats := c.stats
		hits.SetFunc(func() float64 { return float64(stats().Hits) }, c.label)
		misses.SetFunc(func() float64 { return float64(stats().Misses) }, c.label)
		evictions.SetFunc(func() float64 { return float64(stats().Evictions) }, c.label)
	}

	if s.graphs != nil {
		graphs := s.graphs
		reg.GaugeFunc("hyperpraw_graph_bytes",
			"Resident bytes held by the shared hypergraph arena store (the "+
				"quantity bounded by -graph-cache-bytes).",
			func() float64 { return float64(graphs.Stats().Bytes) })
		reg.GaugeFunc("hyperpraw_graph_refs",
			"Live job references into shared hypergraph arenas; a referenced "+
				"arena cannot be evicted or deleted.",
			func() float64 { return float64(graphs.Stats().Refs) })
		reg.GaugeFunc("hyperpraw_graph_arenas",
			"Hypergraph arenas currently resident in memory (mmapped or "+
				"heap-held); evicted disk-backed arenas stay known but drop "+
				"off this gauge until reacquired.",
			func() float64 { return float64(graphs.Stats().Arenas) })
		reg.CounterFunc("hyperpraw_graph_evictions_total",
			"Arenas evicted from residency by the -graph-cache-bytes budget.",
			func() float64 { return float64(graphs.Stats().Evictions) })
	}

	m.kernel = reg.CounterVec("hyperpraw_kernel_events_total",
		"Streaming kernel activity aggregated across computed jobs (cache "+
			"hits replay a stored result and add nothing), by event kind.",
		"event")

	if s.store != nil {
		m.storeAppend = reg.Histogram("hyperpraw_store_append_seconds",
			"WAL record append latency.", telemetry.DefBuckets)
		m.storeCompact = reg.Histogram("hyperpraw_store_compaction_seconds",
			"WAL compaction latency.", telemetry.DefBuckets)
		reg.GaugeFunc("hyperpraw_store_jobs", "Jobs held by the durable store.",
			func() float64 { return float64(s.store.Count()) })
		s.store.SetTimingHooks(
			func(d time.Duration) { m.storeAppend.ObserveSeconds(d.Seconds()) },
			func(d time.Duration) { m.storeCompact.ObserveSeconds(d.Seconds()) },
		)
	}
	return m
}

// timeStage records one job-stage latency sample.
func (m *serviceMetrics) timeStage(stage string, d time.Duration) {
	if m == nil {
		return
	}
	m.stageSeconds.WithLabelValues(stage).ObserveSeconds(d.Seconds())
}

// sseGauge moves the open-subscriber gauge by delta.
func (m *serviceMetrics) sseGauge(delta float64) {
	if m == nil {
		return
	}
	m.sseSubscribers.Add(delta)
}

// rejected counts one turned-away submission.
func (m *serviceMetrics) rejected(err error) {
	if m == nil {
		return
	}
	reason := "queue_full"
	switch {
	case errors.Is(err, ErrClosed):
		reason = "closed"
	case errors.Is(err, ErrInflightBytes):
		reason = "inflight_bytes"
	case errors.Is(err, ErrUnknownHypergraph):
		reason = "unknown_graph"
	}
	m.jobsRejected.WithLabelValues(reason).Inc()
}

// recordKernel folds one computed run's kernel counters into the aggregate
// family.
func (m *serviceMetrics) recordKernel(ks hyperpraw.KernelStats) {
	if m == nil || m.kernel == nil {
		return
	}
	for _, ev := range []struct {
		name string
		n    int64
	}{
		{"passes", ks.Passes},
		{"frontier_passes", ks.FrontierPasses},
		{"frontier_visited", ks.FrontierVisited},
		{"moves", ks.Moves},
		{"scan_exhaustive", ks.ScanExhaustive},
		{"scan_uniform", ks.ScanUniform},
		{"scan_bounded", ks.ScanBounded},
		{"scan_blocked", ks.ScanBlocked},
		{"exhaustive_fallbacks", ks.ExhaustiveFallbacks},
		{"blocked_work", ks.BlockedWork},
		{"block_rejections", ks.BlockRejections},
		{"exact_settles", ks.ExactSettles},
		{"touched_pruned", ks.TouchedPruned},
	} {
		if ev.n != 0 {
			m.kernel.WithLabelValues(ev.name).Add(float64(ev.n))
		}
	}
}

// snapshot builds the /healthz telemetry summary; nil when telemetry is off.
func (m *serviceMetrics) snapshot() *hyperpraw.TelemetrySnapshot {
	if m == nil || m.reg == nil {
		return nil
	}
	return &hyperpraw.TelemetrySnapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		GoVersion:     runtime.Version(),
		JobsSubmitted: uint64(m.jobsSubmitted.Value()),
		JobsCompleted: uint64(m.jobsCompleted.WithLabelValues("done").Value()),
		JobsFailed:    uint64(m.jobsCompleted.WithLabelValues("failed").Value()),
	}
}
