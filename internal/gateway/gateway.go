// Package gateway is the routing tier in front of N hpserve backends: it
// routes each partition job to a backend chosen by rendezvous hashing on
// the job's hypergraph fingerprint (so resubmissions of the same hypergraph
// hit the backend whose LRU caches are warm), fails a job over to the
// next-ranked backend when its backend dies — on submission, on result
// polling, and mid-SSE-stream alike — and optionally serves repeat
// submissions from its own result cache without touching a backend at all.
//
// The backend set is owned by an internal/membership table: backends join
// by registration (hpserve -announce) with lease renewal, or as static
// seeds from -backends, and a reconciler converges observed state (health
// probes, breaker state, lease expiry) toward the declared set — ejecting
// lease-expired members, re-admitting returners, and draining a lost
// durable member's jobs to its rendezvous peers. Routing reads immutable
// epoch-stamped membership snapshots, never a locked live map. cmd/hpgate
// exposes it over HTTP with the same API surface as hpserve plus batch
// fan-out and the /v1/cluster/members routes.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hyperpraw"
	"hyperpraw/client"
	"hyperpraw/internal/cache"
	"hyperpraw/internal/faultpoint"
	"hyperpraw/internal/graphstore"
	"hyperpraw/internal/membership"
	"hyperpraw/internal/service"
	"hyperpraw/internal/telemetry"
)

var (
	// ErrBadRequest wraps request validation failures (the client's fault).
	ErrBadRequest = errors.New("gateway: bad request")
	// ErrNoBackends is returned when no backend could accept a job.
	ErrNoBackends = errors.New("gateway: no backend available")
	// ErrUnknownJob is returned for job ids the gateway has never issued
	// (or has pruned).
	ErrUnknownJob = errors.New("gateway: unknown job")
	// ErrNotRecoverable is the gateway's verdict that a job lost its
	// backend and can never be failed over: the retention cap evicted its
	// retained wire request, so the only remedy is resubmitting the
	// original request. Served as HTTP 410 Gone.
	ErrNotRecoverable = errors.New("gateway: job not recoverable")
	// ErrSaturated is returned when every reachable backend rejected a
	// submission with 429: the whole fleet is at its admission limits, so
	// the gateway sheds the request upstream rather than queueing it
	// nowhere. Served as HTTP 429 with the backends' best Retry-After
	// hint; match the wrapped *SaturatedError to read it.
	ErrSaturated = errors.New("gateway: every backend is saturated")
	// ErrUnknownGraph is returned when a submission references a
	// hypergraph ID the gateway's own store does not hold and the routed
	// backend does not either — there is nothing to replicate, so the
	// client must upload the graph (POST /v1/hypergraphs) first. Served
	// as HTTP 404.
	ErrUnknownGraph = errors.New("gateway: unknown hypergraph")
	// ErrUnknownMember is returned when deregistration names a member the
	// table does not hold. Served as HTTP 404.
	ErrUnknownMember = errors.New("gateway: unknown member")
)

// SaturatedError carries the shed verdict's backoff hint: the largest
// Retry-After any saturated backend offered (0 when none did).
type SaturatedError struct {
	RetryAfter int
	last       error
}

func (e *SaturatedError) Error() string {
	return fmt.Sprintf("%v (last rejection: %v)", ErrSaturated, e.last)
}

func (e *SaturatedError) Unwrap() error { return ErrSaturated }

// Config tunes a Gateway; zero values select the defaults noted per field.
type Config struct {
	// Backends is the initial backend set (hpserve base URLs), compiled
	// into the member table as static seed members: they never
	// lease-expire and survive until removed explicitly. An empty set is
	// valid — backends may join purely by registration (hpserve
	// -announce).
	Backends []string
	// HTTPClient talks to the backends; nil selects a client without a
	// global timeout (SSE streams are long-lived), health probes are
	// bounded by HealthTimeout instead.
	HTTPClient *http.Client
	// HealthInterval is the period of the background reconciler loop
	// (default 2s). A negative interval disables the loop; tests drive
	// CheckBackends directly.
	HealthInterval time.Duration
	// HealthTimeout bounds one health probe (default 1s).
	HealthTimeout time.Duration
	// ProxyTimeout bounds one proxied submit/status/result call to a
	// backend (default 15s). Proxy calls run holding the job's lock, so an
	// unbounded call against a wedged backend would wedge the gateway's
	// own health and listing endpoints with it; SSE streams are long-lived
	// and not subject to it.
	ProxyTimeout time.Duration
	// FailoverLimit is how many times one job may be resubmitted to
	// another backend before the gateway marks it failed (default 3).
	FailoverLimit int
	// MaxJobs bounds how many jobs are retained for status queries; the
	// oldest finished jobs are pruned beyond it (default 4096).
	MaxJobs int
	// BreakerThreshold is how many consecutive failures trip a backend's
	// circuit breaker open (default 1: the first failure ejects, matching
	// the original binary eject/re-admit behaviour).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker withholds health probes
	// before letting one through as the half-open trial (default 0: every
	// probe is allowed, matching the original behaviour).
	BreakerCooldown time.Duration
	// LeaseTTL is the default lease granted to a member registration that
	// does not request its own TTL (default 10s). A registered member
	// whose lease lapses without a heartbeat is ejected by the reconciler
	// and its jobs are drained to peers.
	LeaseTTL time.Duration
	// SpillWatermark is the queue-occupancy fraction beyond which a
	// backend counts as saturated and rendezvous routing spills past it
	// to the next-ranked backend: a backend whose last /healthz probe
	// showed queued >= SpillWatermark * queue_depth takes new work only
	// after every unsaturated backend refused. An observed 429 marks the
	// backend saturated immediately, until the next successful probe.
	// Default 0.8; negative disables probe-derived saturation.
	SpillWatermark float64
	// RecoveryWindow is how long the gateway waits out the outage of a
	// backend that advertises a durable job store (its /healthz Durable
	// field) before failing its jobs over: a restarted durable backend
	// recovers its jobs from the store — finished results served verbatim,
	// unfinished work re-queued — which is strictly cheaper than a
	// failover recomputation. Jobs on such a backend report their last
	// known state while it is down; once the window lapses the reconciler
	// drains them to the remaining rendezvous peers in one pass.
	// Storeless backends are unaffected and fail over immediately, as
	// before (default 45s; negative disables).
	RecoveryWindow time.Duration
	// ResultCacheBytes, when positive, enables the gateway's own result
	// cache: a repeat submission whose result key (hypergraph fingerprint
	// plus option fingerprints) is cached is answered entirely at the
	// gateway, with zero backend requests. The cache is LRU by resident
	// bytes. Default 0: disabled — the backends' own result caches already
	// deduplicate computation, so the gateway tier only spends memory on
	// this when asked to.
	ResultCacheBytes int64
	// Metrics, when non-nil, receives the gateway's metric families
	// (routing, failover, membership, per-backend health and latency) and
	// is served by NewHandler on GET /metrics. Nil disables collection.
	Metrics *telemetry.Registry
	// Graphs is the gateway's own hypergraph arena store: clients upload
	// a graph once to the gateway (POST /v1/hypergraphs) and the gateway
	// replicates it to the rendezvous-chosen backend the first time a job
	// references it there. Nil selects a private memory-only store owned
	// (and closed) by the gateway.
	Graphs *graphstore.Store
}

func (c Config) withDefaults() Config {
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{}
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = time.Second
	}
	if c.ProxyTimeout <= 0 {
		c.ProxyTimeout = 15 * time.Second
	}
	if c.FailoverLimit <= 0 {
		c.FailoverLimit = 3
	}
	if c.BreakerThreshold < 1 {
		c.BreakerThreshold = 1
	}
	if c.BreakerCooldown < 0 {
		c.BreakerCooldown = 0
	}
	if c.SpillWatermark == 0 {
		c.SpillWatermark = 0.8
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	if c.RecoveryWindow == 0 {
		c.RecoveryWindow = 45 * time.Second
	}
	return c
}

// gwJob is the gateway-side state of one routed job. The original wire
// request is retained until the job reaches a terminal state so a failover
// can resubmit it verbatim to another backend.
//
// Lock ordering: gwJob.mu may be held while taking Gateway.mu (the proxy
// paths do), so Gateway methods holding Gateway.mu must never take a
// gwJob.mu — terminal is atomic for exactly that reason (pruneLocked reads
// it under Gateway.mu).
type gwJob struct {
	mu          sync.Mutex
	id          string
	fingerprint string
	resultKey   string // gateway result-cache key; empty when the cache is off
	wire        hyperpraw.PartitionRequest
	backendURL  string
	backendID   string // the job's id on that backend
	info        hyperpraw.JobInfo
	failovers   int
	terminal    atomic.Bool
	// cached is set when the submission was answered from the gateway's
	// result cache: the job never touched a backend and serves this
	// payload directly.
	cached *hyperpraw.JobResult
	// notRecoverable holds the sticky ErrNotRecoverable verdict so every
	// result poll after the first — not just the one that triggered the
	// failed failover — serves the actionable 410.
	notRecoverable error
}

func (j *gwJob) snapshot() hyperpraw.JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.info
}

// Gateway routes partition jobs across a dynamic set of hpserve backends.
type Gateway struct {
	cfg Config

	// members owns the backend set: desired state (registration, leases,
	// static seeds) and observed state (breakers, queue occupancy), with
	// routing reading epoch-stamped snapshots.
	members *membership.Table
	// clients caches one *client.Client per member URL. Entries outlive
	// membership (a client is a base URL over the shared http.Client, so
	// a departed member's entry costs nothing and is reused on return).
	clients sync.Map

	mu     sync.Mutex
	jobs   map[string]*gwJob
	order  []string // submission order, for listing and pruning
	nextID int

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup

	graphs    *graphstore.Store
	ownGraphs bool

	replMu sync.Mutex
	repl   map[string]*replication // in-flight replications by backend+graph

	// results is the gateway's own result cache (nil unless
	// Config.ResultCacheBytes is positive).
	results *cache.Cache[hyperpraw.JobResult]

	metrics *gatewayMetrics
}

// New returns a Gateway over cfg.Backends with the reconciler loop
// running (unless cfg.HealthInterval is negative). Backends start healthy
// and are ejected by their first failed probe or proxied call.
func New(cfg Config) *Gateway {
	cfg = cfg.withDefaults()
	g := &Gateway{
		cfg:    cfg,
		jobs:   make(map[string]*gwJob),
		stop:   make(chan struct{}),
		graphs: cfg.Graphs,
		repl:   make(map[string]*replication),
	}
	if g.graphs == nil {
		// A memory-only private store: Open without a directory cannot
		// fail, so the error is impossible by construction.
		g.graphs, _ = graphstore.Open(graphstore.Config{})
		g.ownGraphs = true
	}
	if cfg.ResultCacheBytes > 0 {
		g.results = cache.NewBytes[hyperpraw.JobResult](cfg.ResultCacheBytes, resultCost)
	}
	// The member table's hooks close over g.metrics and fire lazily (no
	// member exists before the seed loop below, which runs after the
	// metrics are built), but they nil-guard anyway so table construction
	// order can never panic a scrape.
	g.members = membership.New(membership.Config{
		BreakerThreshold: cfg.BreakerThreshold,
		BreakerCooldown:  cfg.BreakerCooldown,
		LeaseTTL:         cfg.LeaseTTL,
		RecoveryWindow:   cfg.RecoveryWindow,
		SpillWatermark:   cfg.SpillWatermark,
		OnTransition: func(url string, from, to membership.State) {
			if g.metrics == nil {
				return
			}
			g.metrics.breakerTransition(url, to)
			if from == membership.StateClosed && to == membership.StateOpen {
				g.metrics.ejections.WithLabelValues(url).Inc()
			}
			if to == membership.StateClosed {
				g.metrics.readmissions.WithLabelValues(url).Inc()
			}
		},
		OnEvent: func(url, event string) {
			if g.metrics == nil {
				return
			}
			g.metrics.memberTransitions.WithLabelValues(event).Inc()
		},
		Probe: func(ctx context.Context, url string) (membership.Observation, error) {
			probeCtx, cancel := context.WithTimeout(ctx, cfg.HealthTimeout)
			defer cancel()
			start := time.Now()
			h, err := g.clientFor(url).Health(probeCtx)
			g.metrics.backendRequest(url, "health", err, time.Since(start))
			if err != nil {
				return membership.Observation{}, err
			}
			return membership.Observation{Durable: h.Durable, Queued: h.Queued, QueueCap: h.QueueDepth}, nil
		},
		Drain: g.drainMember,
	})
	g.metrics = newGatewayMetrics(cfg.Metrics, g)
	for _, url := range cfg.Backends {
		// A static seed: it starts healthy and never lease-expires.
		if g.members.Add(url) {
			g.metrics.breakerInit(url)
		}
	}
	if cfg.HealthInterval > 0 {
		g.wg.Add(1)
		go g.healthLoop()
	}
	return g
}

// Close stops the reconciler loop and closes the gateway's graph store
// when it owns one. In-flight proxied requests are not interrupted.
func (g *Gateway) Close() {
	g.stopOnce.Do(func() { close(g.stop) })
	g.wg.Wait()
	if g.ownGraphs {
		g.graphs.Close()
	}
}

// clientFor returns (building once) the client for a member URL.
func (g *Gateway) clientFor(url string) *client.Client {
	if c, ok := g.clients.Load(url); ok {
		return c.(*client.Client)
	}
	c, _ := g.clients.LoadOrStore(url, client.New(url, g.cfg.HTTPClient))
	return c.(*client.Client)
}

// RegisterMember records (or lease-renews) an announced member. hpserve
// nodes started with -announce call this on startup and on every
// heartbeat.
func (g *Gateway) RegisterMember(spec hyperpraw.MemberSpec) (hyperpraw.MemberInfo, error) {
	if spec.URL == "" {
		return hyperpraw.MemberInfo{}, fmt.Errorf("%w: member url required", ErrBadRequest)
	}
	m, renewed := g.members.Register(spec.URL, spec.Durable, time.Duration(spec.TTLMS)*time.Millisecond)
	if !renewed {
		g.metrics.breakerInit(spec.URL)
	}
	return g.memberInfo(m), nil
}

// DeregisterMember removes a member and synchronously drains its jobs to
// the remaining rendezvous peers: hpserve calls it on graceful shutdown,
// operators call it to rotate a backend out.
func (g *Gateway) DeregisterMember(url string) error {
	if !g.members.Deregister(url) {
		return ErrUnknownMember
	}
	return nil
}

// Members reports the cluster view: every member's record at the current
// membership epoch.
func (g *Gateway) Members() hyperpraw.MemberList {
	snap := g.members.Snapshot()
	out := hyperpraw.MemberList{Epoch: snap.Epoch, Members: make([]hyperpraw.MemberInfo, 0, len(snap.Members))}
	for _, m := range snap.Members {
		out.Members = append(out.Members, g.memberInfo(m))
	}
	return out
}

func (g *Gateway) memberInfo(m *membership.Member) hyperpraw.MemberInfo {
	healthy, _, durable := m.Status()
	state, _ := m.BreakerState()
	saturated, queued := m.LoadStatus()
	info := hyperpraw.MemberInfo{
		URL: m.URL, Static: m.Static, Durable: durable, Healthy: healthy,
		Breaker: state.String(), Saturated: saturated, Queued: queued,
	}
	if !m.Static {
		if rem := m.LeaseRemaining(); rem > 0 {
			info.LeaseRemainingMS = rem.Milliseconds()
		}
	}
	return info
}

// drainMember resubmits every non-terminal job routed to url to the
// remaining rendezvous-ranked peers, counting each successfully moved job
// in hpgate_drains_total exactly once. The member table calls it — outside
// its own lock — on deregistration, on lease expiry, and when a durable
// member stays down past the recovery window.
func (g *Gateway) drainMember(url string) {
	g.mu.Lock()
	jobs := make([]*gwJob, 0, len(g.jobs))
	for _, j := range g.jobs {
		if !j.terminal.Load() {
			jobs = append(jobs, j)
		}
	}
	g.mu.Unlock()
	// Deliberately not a caller's context: a drain triggered by an HTTP
	// deregistration must finish even if that client disconnects.
	ctx := context.Background()
	for _, j := range jobs {
		j.mu.Lock()
		if j.backendURL == url && !j.terminal.Load() {
			if err := g.failoverLocked(ctx, j); err == nil {
				g.metrics.drains.Inc()
			}
		}
		j.mu.Unlock()
	}
}

// Backends reports every backend's state, sorted by URL.
func (g *Gateway) Backends() []hyperpraw.BackendStatus {
	snap := g.members.Snapshot()
	g.mu.Lock()
	jobs := make([]*gwJob, 0, len(g.jobs))
	for _, j := range g.jobs {
		jobs = append(jobs, j)
	}
	g.mu.Unlock()

	perBackend := make(map[string]int)
	for _, j := range jobs {
		j.mu.Lock()
		perBackend[j.backendURL]++
		j.mu.Unlock()
	}

	out := make([]hyperpraw.BackendStatus, 0, len(snap.Members))
	for _, m := range snap.Members { // snapshot members are URL-sorted
		healthy, fails, durable := m.Status()
		state, _ := m.BreakerState()
		saturated, queued := m.LoadStatus()
		out = append(out, hyperpraw.BackendStatus{
			URL: m.URL, Healthy: healthy, Fails: fails, Jobs: perBackend[m.URL], Durable: durable,
			Breaker: state.String(), Saturated: saturated, Queued: queued,
		})
	}
	return out
}

// Health reports the gateway's point-in-time state. Status is "ok" while
// at least one backend is healthy and "degraded" otherwise.
func (g *Gateway) Health() hyperpraw.GatewayHealth {
	backends := g.Backends()
	status := "degraded"
	for _, b := range backends {
		if b.Healthy {
			status = "ok"
			break
		}
	}
	members := g.Members()
	g.mu.Lock()
	jobs := len(g.jobs)
	g.mu.Unlock()
	gh := hyperpraw.GatewayHealth{
		Status: status, Backends: backends, Jobs: jobs,
		Epoch: members.Epoch, Members: members.Members,
		Telemetry: g.metrics.snapshot(),
	}
	if g.results != nil {
		st := g.results.Stats()
		gh.ResultCache = &st
	}
	return gh
}

// healthLoop runs one reconciler pass every HealthInterval: probing every
// member, ejecting members whose lease lapsed, re-admitting returners,
// and draining durable members down past the recovery window.
func (g *Gateway) healthLoop() {
	defer g.wg.Done()
	ticker := time.NewTicker(g.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-ticker.C:
			g.CheckBackends(context.Background())
		}
	}
}

// CheckBackends runs one membership reconciliation pass (probes, lease
// expiry, recovery-window drains). The background loop calls it
// periodically; tests call it directly.
func (g *Gateway) CheckBackends(ctx context.Context) {
	g.members.Reconcile(ctx)
}

// rendezvousScore is the highest-random-weight score of (key, member):
// FNV-1a over the key, a separator, and the member URL.
func rendezvousScore(key, member string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	h.Write([]byte{0})
	h.Write([]byte(member))
	return h.Sum64()
}

// RendezvousOrder ranks members for key by descending rendezvous score
// (ties broken by URL so the order is total). The ranking is stable under
// membership change: removing a member only remaps the keys that ranked it
// first, and re-adding it restores the previous assignment.
func RendezvousOrder(members []string, key string) []string {
	out := append([]string(nil), members...)
	sort.Slice(out, func(i, k int) bool {
		si, sk := rendezvousScore(key, out[i]), rendezvousScore(key, out[k])
		if si != sk {
			return si > sk
		}
		return out[i] < out[k]
	})
	return out
}

// routePlan is a routing decision for one fingerprint: the backends to
// try in order, which backend the rendezvous ranking put first, and
// whether that primary was demoted out of the first slot because it is
// saturated (the spill case, as opposed to plain ejection).
type routePlan struct {
	cands   []*membership.Member
	primary string
	spilled bool
}

// route returns the backends to try for a fingerprint: rendezvous order,
// partitioned into healthy-and-unsaturated, then healthy-but-saturated
// (the spill targets come before them), then unhealthy — each group
// keeping its rendezvous rank, so an ejected primary is still reachable as
// a last resort when every healthy backend has refused. The whole decision
// reads one membership snapshot: a concurrent registration or ejection
// lands in the next epoch's snapshot, never halfway through this plan.
func (g *Gateway) route(fingerprint string) routePlan {
	snap := g.members.Snapshot()
	ranked := RendezvousOrder(snap.URLs(), fingerprint)
	plan := routePlan{cands: make([]*membership.Member, 0, len(ranked))}
	if len(ranked) > 0 {
		plan.primary = ranked[0]
	}
	var saturated, down []*membership.Member
	for i, url := range ranked {
		b, ok := snap.Get(url)
		if !ok {
			continue
		}
		healthy, _, _ := b.Status()
		sat, _ := b.LoadStatus()
		switch {
		case healthy && !sat:
			plan.cands = append(plan.cands, b)
		case healthy:
			saturated = append(saturated, b)
			plan.spilled = plan.spilled || i == 0
		default:
			down = append(down, b)
		}
	}
	// A demoted primary only counts as spilled when somebody actually
	// ranks ahead of it now.
	plan.spilled = plan.spilled && len(plan.cands) > 0
	plan.cands = append(plan.cands, saturated...)
	plan.cands = append(plan.cands, down...)
	return plan
}

// recoverable reports whether a failed call against b should be waited
// out rather than failed over: the backend advertises a durable job store,
// so a restart recovers its jobs far more cheaply than a failover
// recomputation. Only outages younger than RecoveryWindow qualify; beyond
// it the backend is presumed gone for good and failover proceeds as for
// any other loss.
func (g *Gateway) recoverable(b *membership.Member) bool {
	ok := b.Recoverable(g.cfg.RecoveryWindow)
	if ok {
		g.metrics.recoveryWaits.Inc()
	}
	return ok
}

// recoveryRetryDelay paces SSE re-attach attempts against a restarting
// durable backend: health-interval-ish, clamped so neither the retry storm
// nor the recovery latency gets out of hand.
func (g *Gateway) recoveryRetryDelay() time.Duration {
	d := g.cfg.HealthInterval
	if d <= 0 {
		d = 200 * time.Millisecond
	}
	if d > time.Second {
		d = time.Second
	}
	return d
}

// retryableSubmit reports whether a failed backend submission should move
// on to the next backend — connection errors, server-side 5xx, and 429
// (the backend's queue is full, not dead: another backend may have room) —
// or be returned to the caller (other 4xx: the request itself is at
// fault).
func retryableSubmit(err error) bool {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		return apiErr.StatusCode >= 500 || apiErr.StatusCode == http.StatusTooManyRequests
	}
	return true // transport-level failure: the backend, not the request
}

// resultCost estimates a cached JobResult's resident size for the result
// cache's byte budget: the dominant slices, plus flat allowances for the
// scalar fields and optional sections.
func resultCost(res hyperpraw.JobResult) int64 {
	cost := int64(512)
	cost += int64(len(res.Parts)) * 4
	cost += int64(len(res.History)) * 48
	if res.Bench != nil {
		cost += 256
	}
	if res.Kernel != nil {
		cost += 256
	}
	return cost
}

// Submit validates wire, routes it by hypergraph fingerprint, and submits
// it to the first backend that accepts it, ejecting backends that fail
// along the way. When the gateway's result cache is enabled and already
// holds the request's result key, the submission is answered from it with
// zero backend requests. The returned JobInfo carries the gateway's job id
// and the chosen backend URL.
func (g *Gateway) Submit(ctx context.Context, wire hyperpraw.PartitionRequest) (hyperpraw.JobInfo, error) {
	parsed, err := service.ParseRequest(wire)
	if err != nil {
		return hyperpraw.JobInfo{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	fingerprint := parsed.FingerprintKey()

	var resultKey string
	if g.results != nil {
		resultKey = parsed.ResultKey()
		if res, ok := g.results.Get(resultKey); ok {
			return g.registerCached(fingerprint, resultKey, res, telemetry.TraceFrom(ctx)), nil
		}
	}

	plan := g.route(fingerprint)
	var lastErr error = ErrNoBackends
	var unknownErr error
	allSaturated := len(plan.cands) > 0
	retryHint := 0
	for _, b := range plan.cands {
		info, err := g.submitWithGraph(ctx, b.URL, wire)
		if err != nil {
			if ctx.Err() != nil {
				return hyperpraw.JobInfo{}, ctx.Err()
			}
			if errors.Is(err, ErrUnknownGraph) {
				// Neither this backend nor the gateway's own store holds
				// the referenced graph; another candidate might (a graph
				// uploaded directly to one backend), so keep trying.
				allSaturated = false
				unknownErr, lastErr = err, err
				continue
			}
			if !retryableSubmit(err) {
				return hyperpraw.JobInfo{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
			}
			if hint, ok := rejected429(err); ok {
				// The backend is alive but full: mark it saturated (sticky
				// until the next probe) instead of ejecting it.
				b.MarkSaturated(hint)
				if hint > retryHint {
					retryHint = hint
				}
			} else {
				allSaturated = false
				if backendDown(err) {
					b.MarkDown()
				}
			}
			lastErr = err
			continue
		}
		b.MarkUp()
		g.metrics.jobsSubmitted.Inc()
		if b.URL != plan.primary {
			// The rendezvous primary did not take it; the caches this
			// fingerprint warmed live elsewhere.
			g.metrics.reroutes.Inc()
			if plan.spilled {
				// Demoted for load, not health: a saturation spill.
				g.metrics.spills.Inc()
			}
		}
		return g.register(wire, fingerprint, resultKey, b.URL, info, telemetry.TraceFrom(ctx)), nil
	}
	if allSaturated {
		// Every backend refused with 429: shed upstream with the fleet's
		// best backoff hint rather than disguising overload as an outage.
		g.metrics.shed.Inc()
		return hyperpraw.JobInfo{}, &SaturatedError{RetryAfter: retryHint, last: lastErr}
	}
	if unknownErr != nil {
		// The gateway has no local copy to replicate and at least one
		// live backend confirmed it does not hold the graph either: the
		// reference is unserviceable until the client uploads the graph.
		return hyperpraw.JobInfo{}, unknownErr
	}
	return hyperpraw.JobInfo{}, fmt.Errorf("%w (last error: %v)", ErrNoBackends, lastErr)
}

// rejected429 matches a backend's 429 rejection and extracts its
// Retry-After hint.
func rejected429(err error) (retryAfter int, ok bool) {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusTooManyRequests {
		return apiErr.RetryAfter, true
	}
	return 0, false
}

// submitTo submits wire to the backend at url under the proxy deadline.
func (g *Gateway) submitTo(ctx context.Context, url string, wire hyperpraw.PartitionRequest) (hyperpraw.JobInfo, error) {
	if f := faultpoint.Fire(faultpoint.GatewayProxyDrop); f != nil {
		// Simulated transport loss on the proxied call: retryable, and it
		// indicts the backend exactly like a real connection failure.
		err := fmt.Errorf("gateway: faultpoint %s: proxied submit to %s dropped", f.Name, url)
		g.metrics.backendRequest(url, "submit", err, 0)
		return hyperpraw.JobInfo{}, err
	}
	callCtx, cancel := context.WithTimeout(ctx, g.cfg.ProxyTimeout)
	defer cancel()
	start := time.Now()
	info, err := g.clientFor(url).Submit(callCtx, wire)
	g.metrics.backendRequest(url, "submit", err, time.Since(start))
	return info, err
}

// register records a successfully routed job under a fresh gateway id.
// trace is the submitting request's trace ID, kept as a fallback when the
// backend's echoed JobInfo does not already carry it.
func (g *Gateway) register(wire hyperpraw.PartitionRequest, fingerprint, resultKey, backendURL string, info hyperpraw.JobInfo, trace string) hyperpraw.JobInfo {
	g.mu.Lock()
	g.nextID++
	id := fmt.Sprintf("gw-%06d", g.nextID)
	j := &gwJob{
		id:          id,
		fingerprint: fingerprint,
		resultKey:   resultKey,
		wire:        wire,
		backendURL:  backendURL,
		backendID:   info.ID,
		info:        info,
	}
	j.info.ID = id
	j.info.Backend = backendURL
	if j.info.Trace == "" {
		j.info.Trace = trace
	}
	g.jobs[id] = j
	g.order = append(g.order, id)
	strip := g.pruneLocked()
	g.mu.Unlock()
	g.stripJobs(strip)
	return j.snapshot()
}

// registerCached records a submission answered wholly from the gateway's
// result cache: the job is born terminal-done, carries the cached payload,
// and never touches a backend. It still counts as a submitted and
// completed job so the gateway's totals keep balancing.
func (g *Gateway) registerCached(fingerprint, resultKey string, res hyperpraw.JobResult, trace string) hyperpraw.JobInfo {
	res.ResultCacheHit = true
	g.mu.Lock()
	g.nextID++
	id := fmt.Sprintf("gw-%06d", g.nextID)
	j := &gwJob{id: id, fingerprint: fingerprint, resultKey: resultKey, cached: &res}
	j.info = hyperpraw.JobInfo{
		ID: id, Status: hyperpraw.JobDone, Fingerprint: fingerprint, Trace: trace,
	}
	g.jobs[id] = j
	g.order = append(g.order, id)
	strip := g.pruneLocked()
	g.mu.Unlock()
	g.metrics.jobsSubmitted.Inc()
	g.markTerminal(j, hyperpraw.JobDone)
	g.stripJobs(strip)
	return j.snapshot()
}

// stripJobs drops the retained wire requests pruneLocked returned, outside
// Gateway.mu (gwJob.mu must never be taken under it).
func (g *Gateway) stripJobs(strip []*gwJob) {
	for _, sj := range strip {
		sj.mu.Lock()
		sj.wire = hyperpraw.PartitionRequest{}
		sj.info.Stripped = true
		sj.mu.Unlock()
	}
}

// pruneLocked drops the oldest terminal jobs once the retention cap is
// exceeded, in a single pass over the submission order (a per-eviction
// rescan would be quadratic when the head of the table is long-running
// jobs). When the table is still over the cap afterwards (fire-and-forget
// traffic that never polls, so nothing ever turns terminal), it returns
// the oldest over-cap jobs so the caller can strip their retained wire
// requests — the memory-heavy part — outside Gateway.mu (gwJob.mu must
// never be taken under it). Stripped jobs stay queryable but can no
// longer fail over.
func (g *Gateway) pruneLocked() (strip []*gwJob) {
	over := len(g.order) - g.cfg.MaxJobs
	if over <= 0 {
		return nil
	}
	kept := g.order[:0]
	for i, id := range g.order {
		if over == 0 {
			// Cap met: the rest survives wholesale (steady-state prunes
			// evict one job and must not rescan the whole table).
			kept = append(kept, g.order[i:]...)
			break
		}
		if g.jobs[id].terminal.Load() {
			delete(g.jobs, id)
			over--
			continue
		}
		kept = append(kept, id)
	}
	g.order = kept
	if over > 0 {
		for _, id := range g.order[:over] {
			strip = append(strip, g.jobs[id])
		}
	}
	return strip
}

func (g *Gateway) job(id string) (*gwJob, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	j, ok := g.jobs[id]
	return j, ok
}

// Jobs lists the gateway's jobs (last known info) in submission order.
func (g *Gateway) Jobs() []hyperpraw.JobInfo {
	g.mu.Lock()
	jobs := make([]*gwJob, 0, len(g.order))
	for _, id := range g.order {
		jobs = append(jobs, g.jobs[id])
	}
	g.mu.Unlock()
	out := make([]hyperpraw.JobInfo, len(jobs))
	for i, j := range jobs {
		out[i] = j.snapshot()
	}
	return out
}

// JobsPage lists the gateway's jobs with the same cursor semantics as
// the service tier's GET /v1/jobs: submission order, after skips
// everything up to and including that gateway job ID (IDs are monotone,
// so lexicographic comparison is submission order), limit caps the page
// and sets NextAfter when more remain, and state filters after paging.
// With no limit, cursor, or filter, the page is the whole table —
// byte-compatible with the pre-pagination listing.
func (g *Gateway) JobsPage(limit int, after string, state hyperpraw.JobStatus) hyperpraw.JobsPage {
	g.mu.Lock()
	ids := append([]string(nil), g.order...)
	jobs := make([]*gwJob, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, g.jobs[id])
	}
	g.mu.Unlock()

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

// Job returns the job's current status, proxied live from its backend.
// When the backend has died (or forgot the job across a restart), the job
// is failed over to the next backend first.
func (g *Gateway) Job(ctx context.Context, id string) (hyperpraw.JobInfo, error) {
	j, ok := g.job(id)
	if !ok {
		return hyperpraw.JobInfo{}, ErrUnknownJob
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.terminal.Load() {
		return j.info, nil
	}
	b, ok := g.members.Get(j.backendURL)
	if ok {
		callCtx, cancel := context.WithTimeout(telemetry.WithTrace(ctx, j.info.Trace), g.cfg.ProxyTimeout)
		start := time.Now()
		info, err := g.clientFor(b.URL).Job(callCtx, j.backendID)
		cancel()
		g.metrics.backendRequest(b.URL, "job", err, time.Since(start))
		if err == nil {
			b.MarkUp()
			g.mergeInfoLocked(j, info)
			return j.info, nil
		}
		if ctx.Err() != nil {
			return j.info, ctx.Err()
		}
		if !jobLost(err) {
			return j.info, err
		}
		if backendDown(err) {
			b.MarkDown()
		}
		if g.recoverable(b) {
			// A restarting durable backend recovers this job; report its
			// last known state instead of resubmitting it elsewhere.
			return j.info, nil
		}
	}
	if err := g.failoverLocked(ctx, j); err != nil {
		return j.info, err
	}
	return j.info, nil
}

// Result polls the job's result on its backend. It returns
// (nil, info, nil) while the job is still pending — including immediately
// after a failover resubmission. A backend that is unreachable or has
// forgotten the job triggers a failover; a job the backend reports as
// failed (a deterministic request failure, not a backend failure) is
// terminal and not retried elsewhere. Jobs answered from the gateway's
// result cache serve their payload directly, with no backend involved.
func (g *Gateway) Result(ctx context.Context, id string) (*hyperpraw.JobResult, hyperpraw.JobInfo, error) {
	j, ok := g.job(id)
	if !ok {
		return nil, hyperpraw.JobInfo{}, ErrUnknownJob
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.terminal.Load() && j.info.Status == hyperpraw.JobFailed {
		// notRecoverable is nil for ordinary failures (422); the stripped
		// verdict stays a 410 on every poll, not just the first.
		return nil, j.info, j.notRecoverable
	}
	if j.cached != nil {
		res := *j.cached
		return &res, j.info, nil
	}
	// wasDone: a result was fetched before, so the retained request is gone
	// and failover is no longer possible — if the backend has since lost
	// the payload too, the honest answer is an error, not an eternal 202.
	wasDone := j.terminal.Load() && j.info.Status == hyperpraw.JobDone
	if wasDone && g.results != nil && j.resultKey != "" {
		// The backend may be gone, but the payload was cached on the first
		// fetch; serve it without a round trip.
		if res, ok := g.results.Get(j.resultKey); ok {
			return &res, j.info, nil
		}
	}
	b, ok := g.members.Get(j.backendURL)
	if ok {
		callCtx, cancel := context.WithTimeout(telemetry.WithTrace(ctx, j.info.Trace), g.cfg.ProxyTimeout)
		start := time.Now()
		res, err := g.clientFor(b.URL).Result(callCtx, j.backendID)
		cancel()
		g.metrics.backendRequest(b.URL, "result", err, time.Since(start))
		switch {
		case err == nil:
			b.MarkUp()
			g.markTerminal(j, hyperpraw.JobDone)
			j.info.Status = hyperpraw.JobDone
			j.info.Error = ""
			j.wire = hyperpraw.PartitionRequest{} // no more failovers: stop pinning the upload
			if g.results != nil && j.resultKey != "" {
				g.results.Put(j.resultKey, *res)
			}
			return res, j.info, nil
		case errors.Is(err, client.ErrNotDone):
			b.MarkUp()
			return nil, j.info, nil
		case ctx.Err() != nil:
			return nil, j.info, ctx.Err()
		case isJobFailed(err):
			b.MarkUp()
			g.markTerminal(j, hyperpraw.JobFailed)
			j.info.Status = hyperpraw.JobFailed
			j.info.Error = err.Error()
			j.wire = hyperpraw.PartitionRequest{}
			return nil, j.info, nil
		case !jobLost(err):
			return nil, j.info, err
		}
		if backendDown(err) {
			b.MarkDown()
		}
		if g.recoverable(b) {
			// Pending until the durable backend restarts; its store will
			// serve a finished job's result verbatim and re-queue the rest.
			return nil, j.info, nil
		}
	}
	if wasDone {
		return nil, j.info, fmt.Errorf("gateway: job %s finished but its backend no longer has the result; resubmit the request", j.id)
	}
	if err := g.failoverLocked(ctx, j); err != nil {
		return nil, j.info, err
	}
	return nil, j.info, nil
}

// failoverLocked resubmits j's retained request to the next backend in its
// rendezvous order (the current, lost backend excluded). Caller holds
// j.mu. Exceeding the failover limit, or running out of backends, marks
// the job failed.
func (g *Gateway) failoverLocked(ctx context.Context, j *gwJob) error {
	if j.terminal.Load() {
		return nil
	}
	fail := func(err error) error {
		g.markTerminal(j, hyperpraw.JobFailed)
		j.info.Status = hyperpraw.JobFailed
		j.info.Error = err.Error()
		j.wire = hyperpraw.PartitionRequest{}
		if errors.Is(err, ErrNotRecoverable) {
			j.notRecoverable = err
		}
		return err
	}
	if j.failovers >= g.cfg.FailoverLimit {
		return fail(fmt.Errorf("gateway: job %s exceeded %d failovers", j.id, g.cfg.FailoverLimit))
	}
	if j.wire.Algorithm == "" {
		if j.info.Stripped {
			return fail(fmt.Errorf("%w: job %s lost its backend after the retention cap (max-jobs %d) evicted its retained request; resubmit the original request", ErrNotRecoverable, j.id, g.cfg.MaxJobs))
		}
		// A terminal transition raced with us and already dropped the wire.
		return fail(fmt.Errorf("gateway: job %s lost its backend and its request is no longer retained", j.id))
	}
	// Failover resubmissions carry the job's original trace, not the trace
	// of whichever poll happened to trigger them, so the whole lifetime of
	// one submission stays under one ID.
	ctx = telemetry.WithTrace(ctx, j.info.Trace)
	var lastErr error = ErrNoBackends
	for _, b := range g.route(j.fingerprint).cands {
		if b.URL == j.backendURL {
			continue // the backend we just lost
		}
		info, err := g.submitWithGraph(ctx, b.URL, j.wire)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(err, ErrUnknownGraph) {
				// This replacement backend cannot be given the graph (the
				// gateway holds no copy); another candidate may hold it.
				lastErr = err
				continue
			}
			if !retryableSubmit(err) {
				return fail(err)
			}
			if hint, ok := rejected429(err); ok {
				b.MarkSaturated(hint)
			} else if backendDown(err) {
				b.MarkDown()
			}
			lastErr = err
			continue
		}
		b.MarkUp()
		j.failovers++
		g.metrics.failovers.Inc()
		j.backendURL = b.URL
		j.backendID = info.ID
		g.mergeInfoLocked(j, info)
		return nil
	}
	return fail(fmt.Errorf("gateway: job %s lost its backend and no other accepted it: %w", j.id, lastErr))
}

// mergeInfoLocked folds a backend's JobInfo into the gateway's view,
// preserving the gateway id and recording the serving backend. Caller
// holds j.mu.
func (g *Gateway) mergeInfoLocked(j *gwJob, info hyperpraw.JobInfo) {
	info.ID = j.id
	info.Backend = j.backendURL
	info.Stripped = j.info.Stripped // gateway-local state the backend cannot know
	if j.info.Trace != "" {
		// The submission's trace outlives backend moves; a failed-over
		// job's new backend stamped the resubmission's trace instead.
		info.Trace = j.info.Trace
	}
	j.info = info
	if info.Status == hyperpraw.JobDone || info.Status == hyperpraw.JobFailed {
		g.markTerminal(j, info.Status)
		j.wire = hyperpraw.PartitionRequest{}
	}
}

// markTerminal flips a job terminal exactly once, counting the transition.
func (g *Gateway) markTerminal(j *gwJob, status hyperpraw.JobStatus) {
	if j.terminal.CompareAndSwap(false, true) {
		g.metrics.jobCompleted(status)
	}
}

// backendDown reports whether an error indicts the backend node itself:
// transport-level failures and 5xx responses. These eject the backend
// from routing until a health probe re-admits it.
func backendDown(err error) bool {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		return apiErr.StatusCode >= 500
	}
	return true // transport-level failure
}

// jobLost reports whether an error means this job's copy on the backend is
// gone and a failover should resubmit it: everything backendDown covers,
// plus 404 — a restarted (or retention-pruned) backend has forgotten the
// job without the node as a whole being unhealthy, so a 404 triggers
// failover for the job but must NOT eject the backend.
func jobLost(err error) bool {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusNotFound {
		return true
	}
	return backendDown(err)
}

// isJobFailed reports whether an error is the backend's "job failed"
// verdict (422): the job ran and its request was found wanting — a
// deterministic outcome that failover cannot fix.
func isJobFailed(err error) bool {
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusUnprocessableEntity
}

// StreamEvents streams job id's per-iteration progress by proxying the
// backend's SSE stream, failing over mid-stream when the backend dies.
// Sequence numbers are per backend run — a failed-over job is a fresh run
// whose frames count from 1 again — so the proxy keeps its own monotone
// output sequence and deduplicates replayed work by iteration number
// (identical for deterministic re-runs) rather than by raw sequence.
// A job answered from the gateway's result cache replays the cached run's
// history and final frame without contacting any backend.
// emit receives every forwarded event (final included) with the job id
// rewritten to the gateway's; an emit error aborts the stream (the
// consumer is gone) without ejecting the backend or failing the job over.
func (g *Gateway) StreamEvents(ctx context.Context, id string, after int, emit func(hyperpraw.ProgressEvent) error) error {
	j, ok := g.job(id)
	if !ok {
		return ErrUnknownJob
	}
	j.mu.Lock()
	cached := j.cached
	j.mu.Unlock()
	if cached != nil {
		return streamCached(id, after, *cached, emit)
	}
	lastSeq := after // resume point on the current backend's stream
	outSeq := after  // gateway-facing sequence, monotone across failovers
	lastIter := 0    // highest iteration forwarded, for cross-run dedupe
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		j.mu.Lock()
		backendURL, backendID := j.backendURL, j.backendID
		trace := j.info.Trace
		j.mu.Unlock()

		if b, ok := g.members.Get(backendURL); ok {
			emitFailed := false
			streamErr := g.clientFor(b.URL).StreamProgress(telemetry.WithTrace(ctx, trace), backendID, lastSeq, func(ev hyperpraw.ProgressEvent) error {
				if ev.Seq > lastSeq {
					lastSeq = ev.Seq
				}
				if !ev.Final && ev.Iteration <= lastIter {
					return nil // replay overlap after a reconnect or failover
				}
				if ev.Iteration > lastIter {
					lastIter = ev.Iteration
				}
				outSeq++
				ev.Seq = outSeq
				ev.JobID = id
				if err := emit(ev); err != nil {
					emitFailed = true
					return err
				}
				return nil
			})
			if streamErr == nil {
				return nil // final event delivered
			}
			if emitFailed || ctx.Err() != nil {
				// The consumer is gone (or the request ended) — the backend
				// did nothing wrong; do not eject it or fail the job over.
				if ctx.Err() != nil {
					return ctx.Err()
				}
				return streamErr
			}
			ended := errors.Is(streamErr, client.ErrStreamEnded)
			if !ended && !jobLost(streamErr) {
				return streamErr // the request itself is at fault
			}
			// A transport failure mid-stream indicts the backend. A clean
			// EOF without a final frame does not: it is a dead process's
			// FIN, but equally a backend that retention-pruned the job
			// mid-stream — either way the job needs a failover, and if the
			// node really is down the failed resubmission or the next
			// health probe will eject it.
			if !ended && backendDown(streamErr) {
				b.MarkDown()
			}
			if ended {
				// A clean EOF without a final frame is equally a dying
				// durable backend's FIN (the kernel flushes its sockets)
				// and a backend that retention-pruned the job. Probe once
				// so the recovery window can engage for the former
				// instead of failing the job over to a recomputation.
				probeCtx, cancel := context.WithTimeout(ctx, g.cfg.HealthTimeout)
				if h, err := g.clientFor(b.URL).Health(probeCtx); err != nil {
					b.MarkDown()
				} else {
					b.MarkUpDurable(h.Durable)
				}
				cancel()
			}
			if g.recoverable(b) {
				// A restarting durable backend will replay (or, for an
				// unfinished job, re-run) the progress log, numbering its
				// frames from 1 again — restart the per-backend cursor
				// and let the iteration dedupe skip re-sent work.
				lastSeq = 0
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-time.After(g.recoveryRetryDelay()):
				}
				continue
			}
		}

		// The backend lost the job (or left the routing set): fail the job
		// over and re-attach. Result/Job failover and this path share
		// failoverLocked, so a concurrent poll may already have moved the
		// job; re-reading the mapping at the top of the loop picks that up.
		// A job that is already terminal cannot be failed over (its request
		// is no longer retained) — deliver a final frame with its settled
		// status instead of retrying forever.
		j.mu.Lock()
		resubmitted := j.backendID != backendID // a concurrent poll beat us to it
		var err error
		if !resubmitted {
			err = g.failoverLocked(ctx, j)
			resubmitted = err == nil && j.backendID != backendID
		}
		terminal, status, errMsg := j.terminal.Load(), j.info.Status, j.info.Error
		j.mu.Unlock()
		if err != nil || terminal {
			outSeq++
			ev := hyperpraw.ProgressEvent{JobID: id, Seq: outSeq, Final: true,
				Status: status, Error: errMsg}
			if err != nil {
				ev.Status = hyperpraw.JobFailed
				if ev.Error == "" {
					ev.Error = err.Error()
				}
			}
			if emitErr := emit(ev); emitErr != nil {
				return emitErr
			}
			return nil
		}
		if resubmitted {
			lastSeq = 0 // the replacement run numbers its frames from 1
		}
	}
}

// streamCached replays a cached result's iteration history as SSE frames
// (honouring the after cursor) followed by the final done frame — the same
// shape a backend's own cache-hit replay produces.
func streamCached(id string, after int, res hyperpraw.JobResult, emit func(hyperpraw.ProgressEvent) error) error {
	seq := 0
	for _, pt := range res.History {
		seq++
		if seq <= after {
			continue
		}
		if err := emit(hyperpraw.ProgressEvent{JobID: id, Seq: seq, IterationPoint: pt}); err != nil {
			return err
		}
	}
	seq++
	if seq <= after {
		return nil
	}
	return emit(hyperpraw.ProgressEvent{JobID: id, Seq: seq, Final: true, Status: hyperpraw.JobDone})
}
