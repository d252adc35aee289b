// Package service is the serving layer of the repository: a bounded worker
// pool draining a job queue of partition requests, with per-job status and
// result tracking, LRU caches for profiled machine environments and finished
// partition results, and graceful shutdown. cmd/hpserve exposes it over HTTP;
// the client package talks to that API.
package service

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"hyperpraw"
	"hyperpraw/internal/cache"
	"hyperpraw/internal/faultpoint"
	"hyperpraw/internal/graphstore"
	"hyperpraw/internal/hgen"
	"hyperpraw/internal/store"
	"hyperpraw/internal/telemetry"
)

var (
	// ErrClosed is returned by Submit after Shutdown has begun.
	ErrClosed = errors.New("service: shutting down")
	// ErrQueueFull is returned by Submit when the job queue is at capacity.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrInflightBytes is returned by Submit when accepting the request's
	// inline upload would push the queued+running payload total past
	// Config.MaxInflightBytes.
	ErrInflightBytes = errors.New("service: inflight upload bytes limit reached")
	// ErrUnknownHypergraph is returned by Submit when the request references
	// a HypergraphID the graph store does not hold (never uploaded, still
	// uploading, or deleted).
	ErrUnknownHypergraph = errors.New("service: unknown hypergraph")
	// errDeadline marks a job that hit its ServeOptions.DeadlineMS budget,
	// either while still queued or mid-run (kernel cancellation).
	errDeadline = errors.New("service: job deadline exceeded")
)

// maxInstanceScale bounds catalog-instance scale factors a request may ask
// for: 4x paper size is already hours of work, anything beyond is a typo or
// a memory-exhaustion attempt.
const maxInstanceScale = 4

// maxRequestWorkers bounds options.workers of an aware-parallel request.
// Every worker of a parallel run holds its own O(nv + p) scratch and
// goroutine, and the kernel only caps the count at the vertex count, so
// without a bound a large inline hypergraph could ask for nv workers and
// nv² memory. More workers than cores only time-slice, and 256 is past the
// core count of any one host.
const maxRequestWorkers = 256

// Config tunes a Service; the zero value selects the defaults noted on each
// field.
type Config struct {
	// Workers is the size of the worker pool (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of jobs waiting to run (default 256).
	QueueDepth int
	// MaxInflightBytes bounds the total inline-upload payload (the hMetis
	// text of PartitionRequest.HMetis) across queued and running jobs: a
	// submission that would push the sum past the bound is rejected with
	// ErrInflightBytes (HTTP 429). 0 means unlimited. Catalog-instance
	// requests carry no upload and count as zero bytes.
	MaxInflightBytes int64
	// EnvCacheSize bounds the profiled-Environment LRU (default 16).
	EnvCacheSize int
	// ResultCacheSize bounds the partition-result LRU (default 128).
	ResultCacheSize int
	// MaxJobs bounds how many jobs (and their results) are retained for
	// status queries; the oldest finished jobs are pruned beyond it
	// (default 4096).
	MaxJobs int
	// ProfileFunc profiles a machine into an Environment; nil selects
	// hyperpraw.Profile. Tests substitute an instrumented function.
	ProfileFunc func(*hyperpraw.Machine) hyperpraw.Environment
	// Store, when non-nil, journals every job's lifecycle (submission with
	// its wire request, state changes, terminal result and progress
	// history) and is replayed by New: finished jobs serve their stored
	// results immediately, queued and running jobs re-enter the queue. Nil
	// keeps today's in-memory-only behavior.
	Store *store.Store
	// Metrics, when non-nil, receives the service's metric families
	// (queue/job gauges, stage latencies, cache and kernel counters) and is
	// served by NewHandler on GET /metrics. Nil disables collection; the
	// instrumentation sites remain but no-op.
	Metrics *telemetry.Registry
	// Graphs, when non-nil, is the shared hypergraph arena store behind
	// /v1/hypergraphs and PartitionRequest.HypergraphID; the caller owns
	// its lifecycle (hpserve opens it against -graph-store). Nil makes the
	// service open a private memory-only store, closed on Shutdown, so the
	// resource API works on any deployment.
	Graphs *graphstore.Store
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.EnvCacheSize <= 0 {
		c.EnvCacheSize = 16
	}
	if c.ResultCacheSize <= 0 {
		c.ResultCacheSize = 128
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	if c.ProfileFunc == nil {
		c.ProfileFunc = hyperpraw.Profile
	}
	return c
}

// Request is a fully validated partition job, produced by ParseRequest.
type Request struct {
	Algorithm hyperpraw.Algorithm
	Mapping   bool
	Machine   hyperpraw.MachineSpec
	// Exactly one of Instance (generate on demand) or Hypergraph (already
	// parsed upload) is set.
	Instance   *hyperpraw.InstanceSpec
	Hypergraph *hyperpraw.Hypergraph
	Options    *hyperpraw.ServeOptions
	Bench      *hyperpraw.ServeBenchOptions
	// Trace is the request's trace ID, stamped into JobInfo and log lines
	// so one submission can be followed gateway → backend → job. The HTTP
	// handlers fill it from the request context (see telemetry.Instrument);
	// direct Submit callers may set it by hand or leave it empty.
	Trace string

	fingerprint string // cache identity of the hypergraph source
	name        string // human label for JobInfo
	// wire is the original request as submitted, retained until the job
	// finishes so a durable store can journal (and a restart re-run) it.
	wire hyperpraw.PartitionRequest
}

// FingerprintKey returns the hypergraph-source identity ParseRequest
// computed: the hex Fingerprint for inline uploads, the instance key for
// catalog instances. The hpgate gateway routes on it so repeated
// submissions of the same hypergraph land on the backend whose caches are
// already warm.
func (r Request) FingerprintKey() string { return r.fingerprint }

// AlgorithmLabel returns the wire algorithm name including the mapping
// suffix.
func (r Request) AlgorithmLabel() string {
	if r.Mapping {
		return string(r.Algorithm) + hyperpraw.MappingSuffix
	}
	return string(r.Algorithm)
}

// ResultKey identifies the full computation for the result cache. Workers
// changes the (nondeterministic) aware-parallel outcome, so it joins the
// key for that algorithm only. The gateway keys its own result cache on
// the same string, so the two tiers memoise identical computations.
func (r Request) ResultKey() string {
	parts := []string{
		r.fingerprint, r.AlgorithmLabel(), r.Machine.Key(), r.Options.Key(), r.Bench.Key(),
	}
	if r.Algorithm == hyperpraw.AlgorithmAwareParallel && r.Options != nil && r.Options.Workers > 0 {
		// Workers <= 0 and a nil options object both mean GOMAXPROCS, so
		// only an explicit positive count distinguishes the computation.
		parts = append(parts, fmt.Sprintf("w%d", r.Options.Workers))
	}
	return strings.Join(parts, "|")
}

// ParseRequest validates a wire request: algorithm and machine must be
// known, and exactly one hypergraph source (HypergraphID, Instance or
// HMetis) must be present. Inline hMetis uploads are parsed (and
// fingerprinted) here so malformed input fails at submission, not inside a
// worker. A HypergraphID is taken on faith — the ID is the fingerprint, so
// routing and caching work without the graph; the arena itself is resolved
// at Submit time against the graph store.
func ParseRequest(wire hyperpraw.PartitionRequest) (Request, error) {
	algo, mapping, err := hyperpraw.ParseAlgorithm(wire.Algorithm)
	if err != nil {
		return Request{}, err
	}
	if err := wire.Machine.Validate(); err != nil {
		return Request{}, err
	}
	if wire.Options != nil && wire.Options.Workers > maxRequestWorkers {
		return Request{}, fmt.Errorf("service: options workers %d above the limit of %d", wire.Options.Workers, maxRequestWorkers)
	}
	req := Request{
		Algorithm: algo,
		Mapping:   mapping,
		Machine:   wire.Machine.Normalize(),
		Options:   wire.Options,
		Bench:     wire.Bench,
		wire:      wire,
	}
	sources := 0
	for _, set := range []bool{wire.HypergraphID != "", wire.Instance != nil, wire.HMetis != ""} {
		if set {
			sources++
		}
	}
	if sources > 1 {
		return Request{}, fmt.Errorf("service: request must name exactly one hypergraph source (hypergraph_id, instance or hmetis), got %d", sources)
	}
	switch {
	case wire.HypergraphID != "":
		id := wire.HypergraphID
		if strings.HasPrefix(id, "up-") {
			return Request{}, fmt.Errorf("service: hypergraph %s is an upload session, not a committed hypergraph — commit it first", id)
		}
		req.fingerprint = id
		req.name = "graph-" + id
		if len(id) > 8 {
			req.name = "graph-" + id[:8]
		}
	case wire.Instance != nil:
		spec := wire.Instance.Normalize()
		if _, ok := hgen.SpecByName(spec.Name); !ok {
			return Request{}, fmt.Errorf("service: unknown catalog instance %q", spec.Name)
		}
		if spec.Scale <= 0 || spec.Scale > maxInstanceScale {
			return Request{}, fmt.Errorf("service: instance scale %g out of range (0, %g]", spec.Scale, float64(maxInstanceScale))
		}
		req.Instance = &spec
		req.fingerprint = spec.Key()
		req.name = spec.Name
	case wire.HMetis != "":
		h, err := hyperpraw.UnmarshalHMetis(strings.NewReader(wire.HMetis))
		if err != nil {
			return Request{}, fmt.Errorf("service: bad hmetis upload: %w", err)
		}
		req.Hypergraph = h
		req.fingerprint = hyperpraw.Fingerprint(h)
		req.name = "upload-" + req.fingerprint[:8]
		h.SetName(req.name)
	default:
		return Request{}, fmt.Errorf("service: request needs a hypergraph_id, an instance or an hmetis hypergraph")
	}
	return req, nil
}

// resolveGraph binds a request to its shared arena and returns the release
// to call when the job finishes. For a HypergraphID reference it acquires
// the committed arena (failing with ErrUnknownHypergraph when the store
// does not hold it); for an inline hMetis upload it interns the parsed
// graph so duplicate submissions — and any by-reference jobs for the same
// document — all alias one arena. Instance requests need no graph and
// return a nil release.
func (s *Service) resolveGraph(req *Request) (func(), error) {
	if id := req.wire.HypergraphID; id != "" {
		a, release, err := s.graphs.Acquire(id)
		if err != nil {
			return nil, fmt.Errorf("%w: %s", ErrUnknownHypergraph, id)
		}
		req.Hypergraph = a.Hypergraph()
		if a.Name() != "" {
			req.name = a.Name()
		}
		return release, nil
	}
	if req.Hypergraph != nil {
		a, release, err := s.graphs.Put(req.Hypergraph)
		if err != nil {
			// Interning is an optimisation (dedup + shared residency); a
			// store failure must not reject a request that carries its own
			// parsed graph.
			return nil, nil //nolint:nilerr
		}
		req.Hypergraph = a.Hypergraph()
		return release, nil
	}
	return nil, nil
}

// job is the service-side state of one submitted request.
type job struct {
	mu       sync.Mutex
	info     hyperpraw.JobInfo
	result   *hyperpraw.JobResult
	req      Request
	done     chan struct{} // closed when the job reaches done or failed
	progress *progressLog
	// deadline is the absolute time budget derived from
	// ServeOptions.DeadlineMS at admission (zero = none); cost the inline
	// upload bytes reserved against Config.MaxInflightBytes until the job
	// finishes. Both are set before the job becomes visible to a worker.
	deadline time.Time
	cost     int64
	// finishing is set once the worker starts journaling the job's
	// outcome, so journalUnfinished does not journal an older status after
	// it.
	finishing bool
	// release returns the job's graph-store reference (set when the request
	// resolved to a shared arena); called exactly once when the job
	// finishes. While held it pins the arena: resident against eviction,
	// undeletable, and counted in hyperpraw_graph_refs.
	release func()
}

func (j *job) snapshot() hyperpraw.JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.info
}

// Service runs partition jobs on a bounded worker pool.
type Service struct {
	cfg   Config
	queue chan *job
	wg    sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order, for listing
	nextID   int
	closed   bool
	inflight int64 // upload bytes held by queued+running jobs (admission)

	// waits is a small always-on ring of recent queue-wait samples backing
	// RetryAfter: cheap enough to keep without the metrics registry, so
	// 429 responses carry a live hint even on minimal deployments.
	waitMu  sync.Mutex
	waits   [64]float64 // seconds
	waitLen int
	waitIdx int

	envs    *cache.Cache[hyperpraw.Environment]
	results *cache.Cache[hyperpraw.JobResult]

	store     *store.Store
	graphs    *graphstore.Store
	ownGraphs bool // the service opened graphs itself; close it on Shutdown
	metrics   *serviceMetrics
}

// New starts a Service with cfg's worker pool already running. When cfg
// names a durable store, its journal is replayed first: finished jobs are
// restored with their results and progress history, unfinished jobs
// re-enter the queue.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	var recovered []store.JobRecord
	queueCap := cfg.QueueDepth
	if cfg.Store != nil {
		// The queue must be able to reabsorb every unfinished job the
		// store hands back on top of the configured depth: those jobs
		// held queue slots before the crash, and failing them because a
		// restart races the workers would defeat the store's point.
		recovered = cfg.Store.Jobs()
		for _, rec := range recovered {
			switch rec.Info.Status {
			case hyperpraw.JobDone, hyperpraw.JobFailed:
			default:
				queueCap++
			}
		}
	}
	s := &Service{
		cfg:     cfg,
		queue:   make(chan *job, queueCap),
		jobs:    make(map[string]*job),
		envs:    cache.New[hyperpraw.Environment](cfg.EnvCacheSize),
		results: cache.New[hyperpraw.JobResult](cfg.ResultCacheSize),
		store:   cfg.Store,
		graphs:  cfg.Graphs,
	}
	if s.graphs == nil {
		// A memory-only store cannot fail to open (no directory involved).
		s.graphs, _ = graphstore.Open(graphstore.Config{})
		s.ownGraphs = true
	}
	if s.store != nil {
		s.replayStore(recovered)
	}
	// Register metrics after replay (the store gauge must not observe a
	// half-rebuilt table) but before the workers start recording samples.
	s.metrics = newServiceMetrics(cfg.Metrics, s)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// journal appends rec to the durable store. Journaling is best-effort: a
// failing disk degrades durability, it must not take down serving, so the
// error is dropped here.
func (s *Service) journal(rec store.Record) {
	if s.store == nil {
		return
	}
	_ = s.store.Append(rec)
}

// replayStore rebuilds the job table from the durable store before the
// worker pool starts. Jobs the journal saw finish are restored verbatim —
// result, progress history, sealed log. Jobs that were queued or running
// when the process died lost their computation but not their identity:
// they re-enter the queue under their original ids.
func (s *Service) replayStore(recovered []store.JobRecord) {
	s.nextID = s.store.NextID()
	for _, rec := range recovered {
		j := &job{done: make(chan struct{}), progress: newProgressLog()}
		j.info = rec.Info
		j.info.Persisted = true
		id := j.info.ID
		switch rec.Info.Status {
		case hyperpraw.JobDone, hyperpraw.JobFailed:
			j.result = rec.Result
			for _, ev := range rec.History {
				j.progress.append(ev)
			}
			// A finish record journaled before its final frame (or by an
			// older layout) still seals the replayed log.
			j.progress.seal(hyperpraw.ProgressEvent{JobID: id, Status: j.info.Status, Error: j.info.Error})
			close(j.done)
		default:
			s.requeueReplayed(j, rec)
		}
		s.jobs[id] = j
		s.order = append(s.order, id)
	}
}

// requeueReplayed returns a recovered unfinished job to the queue, or
// fails it when its request cannot be re-run.
func (s *Service) requeueReplayed(j *job, rec store.JobRecord) {
	fail := func(msg string) {
		j.info.Status = hyperpraw.JobFailed
		j.info.Error = msg
		j.info.FinishedAt = time.Now().UnixMilli()
		j.progress.seal(hyperpraw.ProgressEvent{JobID: j.info.ID, Status: hyperpraw.JobFailed, Error: msg})
		close(j.done)
		history, _ := j.progress.all()
		s.journal(store.Finished(j.info, nil, history))
	}
	if rec.Wire == nil {
		fail("service: restart recovery found no retained request for the job")
		return
	}
	req, err := ParseRequest(*rec.Wire)
	if err != nil {
		fail(fmt.Sprintf("service: restart recovery could not re-parse the request: %v", err))
		return
	}
	j.req = req
	// A recovered by-reference job needs its arena back; with a shared
	// -graph-store directory the graph survived the restart alongside the
	// job journal, so this normally succeeds.
	release, err := s.resolveGraph(&j.req)
	if err != nil {
		fail(fmt.Sprintf("service: restart recovery could not resolve the hypergraph: %v", err))
		return
	}
	j.release = release
	// Recovered jobs bypass admission (they held their slots before the
	// crash) but still reserve their upload bytes so the release at finish
	// balances; their original deadline keeps applying across the restart.
	j.cost = int64(len(rec.Wire.HMetis))
	s.inflight += j.cost
	if opts := req.Options; opts != nil && opts.DeadlineMS > 0 {
		j.deadline = time.UnixMilli(j.info.SubmittedAt).
			Add(time.Duration(opts.DeadlineMS) * time.Millisecond)
	}
	j.info.Status = hyperpraw.JobQueued
	j.info.StartedAt = 0
	select {
	case s.queue <- j:
		if rec.Info.Status != hyperpraw.JobQueued {
			s.journal(store.StatusChanged(j.info))
		}
	default:
		// Unreachable: New sizes the queue to hold every recovered
		// unfinished job; kept as a safety net over a silent drop.
		s.inflight -= j.cost
		if j.release != nil {
			j.release()
			j.release = nil
		}
		fail("service: job queue full after restart")
	}
}

// Submit enqueues a request and returns the queued job's info. It fails
// with ErrQueueFull when the queue is at capacity, ErrInflightBytes when
// the request's upload would breach Config.MaxInflightBytes, and ErrClosed
// after Shutdown has begun.
func (s *Service) Submit(req Request) (hyperpraw.JobInfo, error) {
	// Resolve the shared arena before admission so an unknown HypergraphID
	// fails fast (and an inline upload deduplicates into the store). The
	// reference is held from here until the job finishes — or returned on
	// any rejection below.
	release, err := s.resolveGraph(&req)
	if err != nil {
		s.metrics.rejected(err)
		return hyperpraw.JobInfo{}, err
	}
	unref := func() {
		if release != nil {
			release()
		}
	}
	cost := int64(len(req.wire.HMetis))
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		unref()
		s.metrics.rejected(ErrClosed)
		return hyperpraw.JobInfo{}, ErrClosed
	}
	// Cheap rejection before the journal write below: an overloaded node
	// must not pay an upload-sized WAL append (plus the compensating
	// prune) for every request it is about to turn away. Re-checked after
	// the journal for the true race.
	if len(s.queue) >= s.cfg.QueueDepth {
		s.mu.Unlock()
		unref()
		s.metrics.rejected(ErrQueueFull)
		return hyperpraw.JobInfo{}, ErrQueueFull
	}
	if s.cfg.MaxInflightBytes > 0 && s.inflight+cost > s.cfg.MaxInflightBytes {
		s.mu.Unlock()
		unref()
		s.metrics.rejected(ErrInflightBytes)
		return hyperpraw.JobInfo{}, ErrInflightBytes
	}
	s.nextID++
	j := &job{
		req:      req,
		cost:     cost,
		release:  release,
		done:     make(chan struct{}),
		progress: newProgressLog(),
		info: hyperpraw.JobInfo{
			ID:          fmt.Sprintf("job-%06d", s.nextID),
			Status:      hyperpraw.JobQueued,
			Algorithm:   req.AlgorithmLabel(),
			Machine:     req.Machine,
			Hypergraph:  req.name,
			Fingerprint: req.fingerprint,
			Trace:       req.Trace,
			SubmittedAt: time.Now().UnixMilli(),
		},
	}
	if opts := req.Options; opts != nil && opts.DeadlineMS > 0 {
		j.deadline = time.UnixMilli(j.info.SubmittedAt).
			Add(time.Duration(opts.DeadlineMS) * time.Millisecond)
	}
	if s.store != nil {
		j.info.Persisted = true
	}
	s.mu.Unlock()

	// Journal before the job can become visible to a worker, so the
	// Submitted record precedes the worker's StatusChanged/Finished
	// records in the WAL (replay drops records for unknown ids). Done
	// outside s.mu: the record carries the full wire request, upload
	// included, and that write must not stall every other API call.
	s.journal(store.Submitted(j.info, req.wire))

	s.mu.Lock()
	reject := func(err error) (hyperpraw.JobInfo, error) {
		s.mu.Unlock()
		unref()
		// Compensate the already-journaled submission so a restart does
		// not resurrect a job the caller was told was rejected.
		s.journal(store.Pruned(j.info.ID))
		s.metrics.rejected(err)
		return hyperpraw.JobInfo{}, err
	}
	if s.closed { // Shutdown raced the journal write
		return reject(ErrClosed)
	}
	// The channel may carry recovery headroom beyond the configured depth
	// (see New); enforce the configured bound on fresh work explicitly so
	// backpressure is unchanged once the recovered jobs drain.
	if len(s.queue) >= s.cfg.QueueDepth {
		return reject(ErrQueueFull)
	}
	if s.cfg.MaxInflightBytes > 0 && s.inflight+cost > s.cfg.MaxInflightBytes {
		return reject(ErrInflightBytes)
	}
	select {
	case s.queue <- j:
	default:
		return reject(ErrQueueFull)
	}
	s.inflight += cost
	s.jobs[j.info.ID] = j
	s.order = append(s.order, j.info.ID)
	pruned := s.pruneLocked()
	s.mu.Unlock()
	s.metrics.jobsSubmitted.Inc()
	for _, id := range pruned {
		s.journal(store.Pruned(id))
	}
	return j.snapshot(), nil
}

// pruneLocked drops the oldest finished jobs once the retention cap is
// exceeded, so a long-lived server's job table (and the results it pins)
// stays bounded. Unfinished jobs are never pruned. The scan is a single
// pass over the submission order: with a head full of long-running jobs a
// per-eviction rescan would be quadratic in the table size. The evicted
// ids are returned so the caller can journal the evictions outside s.mu.
func (s *Service) pruneLocked() (evicted []string) {
	over := len(s.order) - s.cfg.MaxJobs
	if over <= 0 {
		return nil
	}
	kept := s.order[:0]
	for i, id := range s.order {
		if over == 0 {
			// Cap met: the rest survives wholesale (steady-state prunes
			// evict one job and must not rescan the whole table).
			kept = append(kept, s.order[i:]...)
			break
		}
		j := s.jobs[id]
		evict := false
		switch j.snapshotStatusLocked() {
		case hyperpraw.JobDone, hyperpraw.JobFailed:
			evict = true
		}
		if !evict {
			kept = append(kept, id)
			continue
		}
		over--
		delete(s.jobs, id)
		j.mu.Lock()
		status, errMsg := j.info.Status, j.info.Error
		j.mu.Unlock()
		// An evicted job is terminal, so its log is normally sealed already
		// and this is a no-op; it guarantees a subscriber that attached
		// before the prune still receives a terminal frame instead of
		// blocking on an evicted log forever.
		j.progress.seal(hyperpraw.ProgressEvent{JobID: id, Status: status, Error: errMsg})
		evicted = append(evicted, id)
	}
	s.order = kept
	return evicted
}

// Job returns the current info for id.
func (s *Service) Job(id string) (hyperpraw.JobInfo, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return hyperpraw.JobInfo{}, false
	}
	return j.snapshot(), true
}

// Jobs lists all known jobs in submission order.
func (s *Service) Jobs() []hyperpraw.JobInfo {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]hyperpraw.JobInfo, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot()
	}
	return out
}

// JobsPage returns one page of the job table in submission order. after
// resumes the listing strictly past that job ID (job IDs are monotonic, so
// a cursor stays valid across pruning); limit bounds the page (<= 0 means
// no bound); state, when non-empty, keeps only jobs whose current status
// matches. NextAfter is set when the table holds further entries past the
// returned page.
func (s *Service) JobsPage(limit int, after string, state hyperpraw.JobStatus) hyperpraw.JobsPage {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()

	page := hyperpraw.JobsPage{Jobs: []hyperpraw.JobInfo{}}
	for i, j := range jobs {
		if after != "" && ids[i] <= after {
			continue
		}
		if limit > 0 && len(page.Jobs) == limit {
			page.NextAfter = page.Jobs[limit-1].ID
			break
		}
		info := j.snapshot()
		if state != "" && info.Status != state {
			continue
		}
		page.Jobs = append(page.Jobs, info)
	}
	return page
}

// Result returns the finished payload for id; ok is false for unknown ids,
// and the result pointer is nil until the job reaches JobDone.
func (s *Service) Result(id string) (*hyperpraw.JobResult, hyperpraw.JobInfo, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, hyperpraw.JobInfo{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.info, true
}

// Wait blocks until the job finishes (done or failed) or ctx expires.
func (s *Service) Wait(ctx context.Context, id string) (*hyperpraw.JobResult, hyperpraw.JobInfo, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, hyperpraw.JobInfo{}, fmt.Errorf("service: unknown job %q", id)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return nil, j.snapshot(), ctx.Err()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.info, nil
}

// Health reports the service's point-in-time state.
func (s *Service) Health() hyperpraw.ServeHealth {
	s.mu.Lock()
	queued, running, total := 0, 0, len(s.jobs)
	for _, j := range s.jobs {
		switch j.snapshotStatusLocked() {
		case hyperpraw.JobQueued:
			queued++
		case hyperpraw.JobRunning:
			running++
		}
	}
	closed := s.closed
	inflight := s.inflight
	s.mu.Unlock()
	status := "ok"
	if closed {
		status = "shutting-down"
	}
	health := hyperpraw.ServeHealth{
		Status:           status,
		Workers:          s.cfg.Workers,
		QueueDepth:       s.cfg.QueueDepth,
		Queued:           queued,
		Running:          running,
		Jobs:             total,
		EnvCache:         s.envs.Stats(),
		ResultCache:      s.results.Stats(),
		InflightBytes:    inflight,
		MaxInflightBytes: s.cfg.MaxInflightBytes,
	}
	if s.store != nil {
		health.Durable = true
		health.StoredJobs = s.store.Count()
	}
	health.Telemetry = s.metrics.snapshot()
	return health
}

// noteQueueWait records one job's queue wait into the ring backing
// RetryAfter.
func (s *Service) noteQueueWait(d time.Duration) {
	s.waitMu.Lock()
	s.waits[s.waitIdx] = d.Seconds()
	s.waitIdx = (s.waitIdx + 1) % len(s.waits)
	if s.waitLen < len(s.waits) {
		s.waitLen++
	}
	s.waitMu.Unlock()
}

// RetryAfter suggests how many seconds a rejected client should wait before
// resubmitting: the median of recent queue waits, clamped to [1s, 60s]. The
// median (not max) because a rejected submission joins the back of a queue
// that is also draining; the clamp keeps the hint sane when the ring holds
// only instant cache hits or one pathological job. Serves the Retry-After
// header on 429/503 responses.
func (s *Service) RetryAfter() int {
	s.waitMu.Lock()
	n := s.waitLen
	sample := make([]float64, n)
	if n > 0 {
		copy(sample, s.waits[:n])
	}
	s.waitMu.Unlock()
	if n == 0 {
		return 1
	}
	sort.Float64s(sample)
	secs := int(math.Ceil(sample[n/2]))
	if secs < 1 {
		return 1
	}
	if secs > 60 {
		return 60
	}
	return secs
}

// snapshotStatusLocked reads a job's status; safe to call while holding
// Service.mu because job state uses its own mutex.
func (j *job) snapshotStatusLocked() hyperpraw.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.info.Status
}

// Shutdown stops accepting submissions, drains the already-queued jobs and
// waits for the workers to exit, or returns ctx.Err() if the deadline
// passes first. Either way every progress log is sealed before returning,
// so SSE subscribers blocked on a log's broadcast channel wake up with a
// terminal frame instead of hanging on a server that is going away.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.sealProgressLogs("")
		if s.ownGraphs {
			// Only a store the service opened itself (no Config.Graphs) is
			// closed here; a shared store outlives the service.
			s.graphs.Close()
		}
		return nil
	case <-ctx.Done():
		// The drain deadline expired with jobs still queued or running.
		// Journal their latest state before the process exits so the
		// restart re-queues them from an up-to-date record instead of
		// racing the kill signal.
		s.journalUnfinished()
		s.sealProgressLogs("service: shut down before the job completed")
		return ctx.Err()
	}
}

// journalUnfinished writes every non-terminal job's current info to the
// durable store; called when a drain deadline expires, it is what lets a
// restart pick the abandoned jobs up exactly where the shutdown left them.
func (s *Service) journalUnfinished() {
	if s.store == nil {
		return
	}
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		// Under the job's lock, so a worker that starts finishing the job
		// journals its outcome after this record, not before it.
		j.mu.Lock()
		switch j.info.Status {
		case hyperpraw.JobDone, hyperpraw.JobFailed:
		default:
			if !j.finishing {
				s.journal(store.StatusChanged(j.info))
			}
		}
		j.mu.Unlock()
	}
}

// sealProgressLogs delivers a terminal frame on every unsealed progress
// log (finished jobs sealed theirs already, making this a no-op for them).
// errMsg annotates jobs that never reached a terminal state.
func (s *Service) sealProgressLogs(errMsg string) {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		id, status, jobErr := j.info.ID, j.info.Status, j.info.Error
		j.mu.Unlock()
		if jobErr == "" {
			jobErr = errMsg
		}
		j.progress.seal(hyperpraw.ProgressEvent{JobID: id, Status: status, Error: jobErr})
	}
}

func (s *Service) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

func (s *Service) runJob(j *job) {
	started := time.Now()
	j.mu.Lock()
	j.info.Status = hyperpraw.JobRunning
	j.info.StartedAt = started.UnixMilli()
	queueWait := time.Duration(j.info.StartedAt-j.info.SubmittedAt) * time.Millisecond
	j.info.QueueWaitMS = float64(queueWait) / float64(time.Millisecond)
	id := j.info.ID
	running := j.info
	deadline := j.deadline
	j.mu.Unlock()
	s.noteQueueWait(queueWait)
	s.metrics.timeStage("queue_wait", queueWait)
	s.journal(store.StatusChanged(running))

	// Live progress: the restreaming kernel calls onIter on every pass of
	// the job that actually computes. A job served from the result cache
	// (or piggybacking on another job's in-flight computation) emits
	// nothing here; its history is replayed below instead.
	onIter := func(st hyperpraw.IterationStats) {
		j.progress.append(hyperpraw.ProgressEvent{
			JobID:          id,
			IterationPoint: hyperpraw.PointFromStats(st),
		})
	}
	var (
		res hyperpraw.JobResult
		err error
	)
	if !deadline.IsZero() && !started.Before(deadline) {
		// Load shedding: the job burned its whole budget in the queue.
		// Failing it here is free and keeps the worker for jobs that can
		// still meet their deadlines — running work is never abandoned to
		// make room, queued work past its budget never starts.
		err = fmt.Errorf("%w: %.1fs queued exhausted the %.1fs budget before execution",
			errDeadline, queueWait.Seconds(), time.Duration(j.req.Options.DeadlineMS*int64(time.Millisecond)).Seconds())
	} else {
		var stop func() bool
		if !deadline.IsZero() {
			ctx, cancel := context.WithDeadline(context.Background(), deadline)
			defer cancel()
			stop = func() bool { return ctx.Err() != nil }
		}
		faultpoint.Fire(faultpoint.ServiceExecSlow)
		res, err = s.executeSafe(j.req, onIter, stop)
	}
	exec := time.Since(started)

	// The job's outcome is journaled before it is published: no reader may
	// see a finished job, its result or its final progress frame that a
	// kill could still take away and make a restart recompute.
	j.mu.Lock()
	finished := j.info
	finished.FinishedAt = time.Now().UnixMilli()
	finished.ExecMS = float64(exec) / float64(time.Millisecond)
	var result *hyperpraw.JobResult
	if err != nil {
		finished.Status = hyperpraw.JobFailed
		finished.Error = err.Error()
	} else {
		finished.Status = hyperpraw.JobDone
		result = &res
	}
	status, errMsg := finished.Status, finished.Error
	trace, algorithm := finished.Trace, finished.Algorithm
	// Only JobInfo and JobResult serve status queries from here on; drop
	// the request so finished jobs don't pin uploaded hypergraphs in
	// memory until the retention prune reaches them.
	j.req = Request{}
	release := j.release
	j.release = nil
	j.finishing = true
	j.mu.Unlock()
	if release != nil {
		// Return the graph-store reference: the arena becomes evictable
		// (and deletable) once the last job using it finishes.
		release()
	}

	s.mu.Lock()
	s.inflight -= j.cost
	s.mu.Unlock()

	s.metrics.timeStage("total", queueWait+exec)
	// Deadline expiries count separately from organic failures so an
	// operator can tell "jobs are broken" from "jobs are too slow".
	outcome := "done"
	if err != nil {
		outcome = "failed"
		if errors.Is(err, errDeadline) {
			outcome = "deadline"
		}
	}
	s.metrics.jobsCompleted.WithLabelValues(outcome).Inc()
	if err != nil {
		log.Printf("service: job=%s trace=%s algorithm=%s status=%s queue_wait_ms=%.1f exec_ms=%.1f error=%q",
			id, trace, algorithm, outcome, float64(queueWait)/float64(time.Millisecond), float64(exec)/float64(time.Millisecond), errMsg)
	} else {
		log.Printf("service: job=%s trace=%s algorithm=%s status=done queue_wait_ms=%.1f exec_ms=%.1f",
			id, trace, algorithm, float64(queueWait)/float64(time.Millisecond), float64(exec)/float64(time.Millisecond))
	}

	if err == nil && j.progress.count() == 0 {
		for _, pt := range res.History {
			j.progress.append(hyperpraw.ProgressEvent{JobID: id, IterationPoint: pt})
		}
	}
	final := hyperpraw.ProgressEvent{JobID: id, Final: true, Status: status, Error: errMsg}
	history, _ := j.progress.all()
	// A deadline-exceeded Shutdown may have force-sealed the log while
	// this job was still running; journal the job's actual outcome, not
	// the shutdown placeholder.
	for len(history) > 0 && history[len(history)-1].Final {
		history = history[:len(history)-1]
	}
	final.Seq = len(history) + 1
	s.journal(store.Finished(finished, result, append(history, final)))

	j.mu.Lock()
	j.info, j.result = finished, result
	j.mu.Unlock()
	j.progress.append(final)
	close(j.done)
}

// executeSafe converts a panicking execution into a failed job: one bad
// request must never take down the worker (and with it the whole server).
func (s *Service) executeSafe(req Request, onIter func(hyperpraw.IterationStats), stop func() bool) (res hyperpraw.JobResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("service: job panicked: %v", r)
		}
	}()
	return s.execute(req, onIter, stop)
}

// execute runs one request end to end: profile (or reuse) the machine's
// environment, obtain the hypergraph, and compute (or reuse) the partition.
func (s *Service) execute(req Request, onIter func(hyperpraw.IterationStats), stop func() bool) (hyperpraw.JobResult, error) {
	machine, err := req.Machine.Build()
	if err != nil {
		return hyperpraw.JobResult{}, err
	}
	env, envHit, err := s.envs.GetOrCompute(req.Machine.Key(), func() (hyperpraw.Environment, error) {
		start := time.Now()
		env := s.cfg.ProfileFunc(machine)
		s.metrics.timeStage("profile", time.Since(start))
		return env, nil
	})
	if err != nil {
		return hyperpraw.JobResult{}, err
	}

	// Stage timing and kernel aggregation live inside the compute closure:
	// a cache hit (or a job piggybacking on an in-flight computation) did
	// no partitioning work and must not inflate the counters.
	res, resHit, err := s.results.GetOrCompute(req.ResultKey(), func() (hyperpraw.JobResult, error) {
		h := req.Hypergraph
		if h == nil {
			spec := *req.Instance
			h = hyperpraw.GenerateInstance(spec.Name, spec.Scale, spec.Seed)
		}
		start := time.Now()
		r, err := partitionOnce(h, env, machine, req, onIter, stop)
		if err == nil {
			s.metrics.timeStage("partition", time.Since(start))
			if r.Kernel != nil {
				s.metrics.recordKernel(*r.Kernel)
			}
		}
		return r, err
	})
	if err != nil {
		return hyperpraw.JobResult{}, err
	}
	// The cached value is shared; per-job cache provenance goes on a copy.
	res.EnvCacheHit = envHit
	res.ResultCacheHit = resHit
	return res, nil
}

// partitionOnce runs the requested algorithm once and assembles the result.
// History recording is forced on so every restreaming result carries its
// per-iteration trajectory (replayed to SSE subscribers that missed the
// live run); onIter additionally streams each iteration as it happens.
func partitionOnce(h *hyperpraw.Hypergraph, env hyperpraw.Environment, machine *hyperpraw.Machine, req Request, onIter func(hyperpraw.IterationStats), stop func() bool) (hyperpraw.JobResult, error) {
	opts := req.Options.Options()
	if opts == nil {
		opts = &hyperpraw.Options{}
	}
	opts.RecordHistory = true
	opts.Progress = onIter
	opts.Stop = stop
	// Kernel activity counters ride along with the result, so a job served
	// from the cache still shows the computing run's counters.
	var ks hyperpraw.KernelStats
	opts.KernelStats = &ks
	start := time.Now()

	var (
		parts []int32
		pres  hyperpraw.PartitionResult
		err   error
	)
	switch req.Algorithm {
	case hyperpraw.AlgorithmAware:
		parts, pres, err = hyperpraw.PartitionAware(h, env, opts)
	case hyperpraw.AlgorithmAwareParallel:
		workers := 0
		if req.Options != nil {
			workers = req.Options.Workers
		}
		parts, pres, err = hyperpraw.PartitionAwareParallel(h, env, opts, workers)
	case hyperpraw.AlgorithmOblivious:
		parts, pres, err = hyperpraw.PartitionBasic(h, env, opts)
	case hyperpraw.AlgorithmMultilevel:
		parts, err = hyperpraw.PartitionMultilevel(h, machine.NumCores(), opts)
	case hyperpraw.AlgorithmHierarchical:
		parts, err = hyperpraw.PartitionHierarchical(h, machine, opts)
	default:
		err = fmt.Errorf("service: unhandled algorithm %q", req.Algorithm)
	}
	if err != nil {
		return hyperpraw.JobResult{}, err
	}
	if pres.Parts != nil && pres.Stopped == hyperpraw.StoppedCanceled {
		// The deadline tripped the kernel's Stop hook mid-run. Fail the job
		// (an error here also keeps the partial partition out of the result
		// cache) rather than serve a cut of unknown quality.
		return hyperpraw.JobResult{}, fmt.Errorf("%w: kernel cancelled after %d iterations", errDeadline, pres.Iterations)
	}
	if req.Mapping {
		parts, err = hyperpraw.MapToTopology(h, parts, machine, env)
		if err != nil {
			return hyperpraw.JobResult{}, err
		}
	}

	report := hyperpraw.Evaluate(h, parts, env)
	report.Algorithm = req.AlgorithmLabel()
	out := hyperpraw.JobResult{
		Parts:  parts,
		K:      machine.NumCores(),
		Report: report,
	}
	if pres.Parts != nil {
		out.Iterations = pres.Iterations
		out.StopReason = pres.Stopped.String()
		out.History = make([]hyperpraw.IterationPoint, len(pres.History))
		for i, st := range pres.History {
			out.History[i] = hyperpraw.PointFromStats(st)
		}
	}
	if req.Bench != nil {
		bres, err := hyperpraw.SimulateBenchmark(machine, h, parts, req.Bench.Options())
		if err != nil {
			return hyperpraw.JobResult{}, err
		}
		out.Bench = &bres
	}
	if !ks.IsZero() {
		out.Kernel = &ks
	}
	out.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	return out, nil
}

// Algorithms lists the wire algorithm names the service accepts (without
// the optional "+mapping" suffix), sorted.
func Algorithms() []string {
	names := []string{
		string(hyperpraw.AlgorithmAware),
		string(hyperpraw.AlgorithmAwareParallel),
		string(hyperpraw.AlgorithmOblivious),
		string(hyperpraw.AlgorithmMultilevel),
		string(hyperpraw.AlgorithmHierarchical),
	}
	sort.Strings(names)
	return names
}
