package hyperpraw

import (
	"fmt"
	"io"
	"strings"

	"hyperpraw/internal/hypergraph"
)

// This file is the serving-side contract of the facade: the wire types the
// partitioning service (internal/service), its HTTP front end (cmd/hpserve)
// and the Go client (client) all share, plus the bridges that connect those
// wire types back to the library entry points — an Options bridge, a machine
// builder keyed by spec, and a deterministic hypergraph fingerprint used as
// a cache key.

// Algorithm names a partitioning strategy served by the partition service.
type Algorithm string

const (
	// AlgorithmAware is HyperPRAW with the profiled physical cost matrix.
	AlgorithmAware Algorithm = "aware"
	// AlgorithmAwareParallel is the parallel restreaming variant of
	// AlgorithmAware (valid but not run-to-run deterministic).
	AlgorithmAwareParallel Algorithm = "aware-parallel"
	// AlgorithmOblivious is HyperPRAW with the uniform cost matrix
	// (HyperPRAW-basic in the paper).
	AlgorithmOblivious Algorithm = "oblivious"
	// AlgorithmMultilevel is the Zoltan-style multilevel baseline.
	AlgorithmMultilevel Algorithm = "multilevel"
	// AlgorithmHierarchical is the Zoltan hierarchical baseline.
	AlgorithmHierarchical Algorithm = "hierarchical"
)

// MappingSuffix appended to an algorithm name requests a LibTopoMap-style
// topology mapping pass over the finished partition ("aware+mapping").
const MappingSuffix = "+mapping"

// ParseAlgorithm parses an algorithm name as it appears on the wire,
// accepting an optional "+mapping" suffix. "basic" is accepted as an alias
// for "oblivious".
func ParseAlgorithm(s string) (algo Algorithm, mapping bool, err error) {
	name := strings.TrimSpace(s)
	if strings.HasSuffix(name, MappingSuffix) {
		mapping = true
		name = strings.TrimSuffix(name, MappingSuffix)
	}
	if name == "basic" {
		name = string(AlgorithmOblivious)
	}
	switch Algorithm(name) {
	case AlgorithmAware, AlgorithmAwareParallel, AlgorithmOblivious,
		AlgorithmMultilevel, AlgorithmHierarchical:
		return Algorithm(name), mapping, nil
	case "":
		return "", false, fmt.Errorf("hyperpraw: empty algorithm")
	default:
		return "", false, fmt.Errorf("hyperpraw: unknown algorithm %q", s)
	}
}

// MachineSpec identifies a simulated machine on the wire. Kind selects the
// topology model ("archer" or "cloud"); Seed drives the deterministic noise.
type MachineSpec struct {
	Kind  string `json:"kind"`
	Cores int    `json:"cores"`
	Seed  uint64 `json:"seed,omitempty"`
}

// Normalize fills defaults: kind archer, 64 cores, seed 1.
func (m MachineSpec) Normalize() MachineSpec {
	if m.Kind == "" {
		m.Kind = "archer"
	}
	if m.Cores == 0 {
		m.Cores = 64
	}
	if m.Seed == 0 {
		m.Seed = 1
	}
	return m
}

// Key returns a deterministic cache key for the spec.
func (m MachineSpec) Key() string {
	m = m.Normalize()
	return fmt.Sprintf("%s/%d/s%d", m.Kind, m.Cores, m.Seed)
}

// maxMachineCores bounds the core count a spec may ask for. Building a
// machine allocates cores×cores bandwidth and cost matrices, and the
// kernel keeps a cores×cores neighbour-pair matrix per run, so the bound
// is what keeps a wire request from asking for gigabytes: 1024 covers the
// paper's 576-core ARCHER runs and the largest kernel benchmark.
const maxMachineCores = 1024

// Validate checks the spec without building it: a known kind and
// 2 ≤ cores ≤ 1024 after defaults. It allocates nothing, so request
// parsing can reject a bad spec before any machine-sized allocation.
func (m MachineSpec) Validate() error {
	m = m.Normalize()
	if m.Cores < 2 || m.Cores > maxMachineCores {
		return fmt.Errorf("hyperpraw: machine cores %d out of range [2, %d]", m.Cores, maxMachineCores)
	}
	switch m.Kind {
	case "archer", "cloud":
		return nil
	default:
		return fmt.Errorf("hyperpraw: unknown machine kind %q (want archer or cloud)", m.Kind)
	}
}

// Build constructs the machine the spec describes, after Validate.
func (m MachineSpec) Build() (*Machine, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	m = m.Normalize()
	if m.Kind == "cloud" {
		return NewCloudMachine(m.Cores, m.Seed), nil
	}
	return NewArcherMachine(m.Cores, m.Seed), nil
}

// InstanceSpec asks the service to synthesise a Table 1 catalog instance.
type InstanceSpec struct {
	Name  string  `json:"name"`
	Scale float64 `json:"scale,omitempty"` // default 1.0 (paper size)
	Seed  uint64  `json:"seed,omitempty"`  // default 1
}

// Normalize fills defaults: scale 1.0, seed 1.
func (s InstanceSpec) Normalize() InstanceSpec {
	if s.Scale == 0 {
		s.Scale = 1.0
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Key returns a deterministic cache key for the instance.
func (s InstanceSpec) Key() string {
	s = s.Normalize()
	return fmt.Sprintf("inst:%s:%g:s%d", s.Name, s.Scale, s.Seed)
}

// ServeOptions is the JSON-friendly mirror of Options used on the wire; the
// zero value means paper defaults. Workers only applies to aware-parallel.
type ServeOptions struct {
	ImbalanceTolerance float64 `json:"imbalance_tolerance,omitempty"`
	MaxIterations      int     `json:"max_iterations,omitempty"`
	RefinementFactor   float64 `json:"refinement_factor,omitempty"`
	DisableRefinement  bool    `json:"disable_refinement,omitempty"`
	// FrontierRestreaming enables the frontier-based refinement kernel for
	// the restreaming algorithms (see Options.FrontierRestreaming).
	FrontierRestreaming bool   `json:"frontier_restreaming,omitempty"`
	Seed                uint64 `json:"seed,omitempty"`
	Workers             int    `json:"workers,omitempty"`
	// DeadlineMS bounds the job's total time from submission (queue wait
	// included) in milliseconds; 0 means no deadline. A job still queued at
	// its deadline fails without running; a running restreaming job is
	// cancelled cooperatively at the next kernel pass so a stuck refinement
	// cannot hold a worker slot past its budget. The multilevel and
	// hierarchical baselines only check the deadline before starting.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Options bridges the wire options to the library Options consumed by the
// facade partitioners. A nil receiver yields nil (paper defaults).
func (o *ServeOptions) Options() *Options {
	if o == nil {
		return nil
	}
	return &Options{
		ImbalanceTolerance:  o.ImbalanceTolerance,
		MaxIterations:       o.MaxIterations,
		RefinementFactor:    o.RefinementFactor,
		DisableRefinement:   o.DisableRefinement,
		FrontierRestreaming: o.FrontierRestreaming,
		Seed:                o.Seed,
	}
}

// Key returns a deterministic cache key component for the options. Workers
// is excluded: it only selects the parallelism of aware-parallel, and
// callers that care (Request.resultKey) add it for that algorithm alone so
// identical requests under other algorithms share a cache entry.
func (o *ServeOptions) Key() string {
	if o == nil {
		return "opt:default"
	}
	if (ServeOptions{Workers: o.Workers}) == *o {
		return "opt:default"
	}
	// DeadlineMS joins the key: a deadline-cancelled run would differ from
	// an unconstrained one, so the two must not share a cache entry.
	return fmt.Sprintf("opt:%g:%d:%g:%t:f%t:s%d:dl%d",
		o.ImbalanceTolerance, o.MaxIterations, o.RefinementFactor,
		o.DisableRefinement, o.FrontierRestreaming, o.Seed, o.DeadlineMS)
}

// ServeBenchOptions is the JSON-friendly mirror of BenchOptions.
type ServeBenchOptions struct {
	MessageBytes int64   `json:"message_bytes,omitempty"`
	Steps        int     `json:"steps,omitempty"`
	Overlap      float64 `json:"overlap,omitempty"`
}

// Options bridges to the library BenchOptions. A nil receiver yields nil.
func (b *ServeBenchOptions) Options() *BenchOptions {
	if b == nil {
		return nil
	}
	return &BenchOptions{MessageBytes: b.MessageBytes, Steps: b.Steps, Overlap: b.Overlap}
}

// Key returns a deterministic cache key component for the bench options.
func (b *ServeBenchOptions) Key() string {
	if b == nil {
		return "bench:none"
	}
	return fmt.Sprintf("bench:%d:%d:%g", b.MessageBytes, b.Steps, b.Overlap)
}

// PartitionRequest is the body of POST /v1/partition. Exactly one of
// HypergraphID, Instance or HMetis supplies the hypergraph.
type PartitionRequest struct {
	// Algorithm names the partitioner, optionally with "+mapping".
	Algorithm string      `json:"algorithm"`
	Machine   MachineSpec `json:"machine"`
	// HypergraphID references a hypergraph previously committed through
	// POST /v1/hypergraphs. The job aliases the shared arena — the graph
	// bytes never travel with the request. This is the preferred way to
	// partition any graph used more than once, or too large to inline.
	HypergraphID string `json:"hypergraph_id,omitempty"`
	// Instance generates a catalog hypergraph on the server.
	Instance *InstanceSpec `json:"instance,omitempty"`
	// HMetis is an inline hypergraph upload in hMetis text format.
	//
	// Deprecated: prefer uploading once via POST /v1/hypergraphs and
	// referencing it by HypergraphID. Inline uploads remain supported
	// (and are interned into the same graph store) but resend the whole
	// document on every request.
	HMetis  string             `json:"hmetis,omitempty"`
	Options *ServeOptions      `json:"options,omitempty"`
	Bench   *ServeBenchOptions `json:"bench,omitempty"`
}

// HypergraphState is the lifecycle state of a hypergraph resource.
type HypergraphState string

const (
	// HypergraphUploading is a resumable upload session still accepting
	// parts; its ID lives in the "up-…" namespace.
	HypergraphUploading HypergraphState = "uploading"
	// HypergraphCommitted is a parsed, deduplicated arena; its ID is the
	// graph's fingerprint.
	HypergraphCommitted HypergraphState = "committed"
)

// HypergraphInfo is the wire representation of a hypergraph resource:
// either an in-flight upload session or a committed arena, as served by
// POST/GET /v1/hypergraphs.
type HypergraphInfo struct {
	// ID is the resource identifier. For a committed hypergraph it equals
	// the graph's Fingerprint, so uploading the same document twice (even
	// through different tiers) converges on one resource.
	ID    string          `json:"id"`
	State HypergraphState `json:"state"`
	// Name is the human-readable label supplied at upload time; it does
	// not participate in identity.
	Name string `json:"name,omitempty"`
	// Vertices/Edges/Pins/Bytes describe a committed arena (zero while
	// uploading). Bytes is the arena buffer size, the number that counts
	// against the store's -graph-cache-bytes budget.
	Vertices int   `json:"vertices,omitempty"`
	Edges    int   `json:"edges,omitempty"`
	Pins     int   `json:"pins,omitempty"`
	Bytes    int64 `json:"bytes,omitempty"`
	// Refs is how many live jobs currently alias the arena; a resource
	// with Refs > 0 refuses DELETE with 409 graph_referenced.
	Refs int `json:"refs,omitempty"`
	// Mapped reports the arena is mmap-backed rather than heap-held;
	// Resident that its buffer is currently in memory at all (an evicted
	// disk-backed arena stays known but reloads lazily on next use).
	Mapped   bool `json:"mapped,omitempty"`
	Resident bool `json:"resident,omitempty"`
	// PartsReceived/UploadedBytes describe an uploading session.
	PartsReceived int   `json:"parts_received,omitempty"`
	UploadedBytes int64 `json:"uploaded_bytes,omitempty"`
}

// HypergraphList is the body of GET /v1/hypergraphs.
type HypergraphList struct {
	Hypergraphs []HypergraphInfo `json:"hypergraphs"`
}

// CreateHypergraphRequest is the body of POST /v1/hypergraphs when
// opening a resumable upload session (as opposed to a one-shot ingest,
// which sends the hMetis document itself as a text/plain body).
type CreateHypergraphRequest struct {
	Name string `json:"name,omitempty"`
}

// Error codes carried in ErrorDetail.Code: a stable machine-readable
// taxonomy, so clients branch on codes instead of matching message
// strings or guessing from HTTP status alone.
const (
	// ErrCodeInvalidRequest: the request body or parameters failed
	// validation (HTTP 400/422).
	ErrCodeInvalidRequest = "invalid_request"
	// ErrCodeNotFound: the referenced resource does not exist (404).
	ErrCodeNotFound = "not_found"
	// ErrCodeMethodNotAllowed: the path exists but not for this verb (405).
	ErrCodeMethodNotAllowed = "method_not_allowed"
	// ErrCodeTooLarge: a request or upload exceeded a size bound (413).
	ErrCodeTooLarge = "too_large"
	// ErrCodeOverloaded: admission control or saturation shed the request;
	// retry after RetryAfterMS (429).
	ErrCodeOverloaded = "overloaded"
	// ErrCodeUploadState: the upload session is not in a state that allows
	// the operation (409) — e.g. a part PUT after commit.
	ErrCodeUploadState = "upload_state"
	// ErrCodeUploadIncomplete: commit refused because parts are missing
	// (409); the message names the missing part numbers.
	ErrCodeUploadIncomplete = "upload_incomplete"
	// ErrCodeGraphReferenced: DELETE refused because live jobs still
	// reference the hypergraph (409).
	ErrCodeGraphReferenced = "graph_referenced"
	// ErrCodeJobFailed: the job reached a terminal failed state (422 on
	// result fetch).
	ErrCodeJobFailed = "job_failed"
	// ErrCodeUnavailable: no backend could serve the request (502/503).
	ErrCodeUnavailable = "unavailable"
	// ErrCodeInternal: an unexpected server-side failure (500).
	ErrCodeInternal = "internal"
)

// ErrorDetail is the machine-readable error payload carried inside
// ErrorBody: a stable Code from the catalog above, a human Message, an
// optional retry hint, and the request's trace ID for cross-tier log
// correlation.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterMS is a backoff hint accompanying overloaded/unavailable
	// codes; 0 means no hint.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// Trace is the X-Hyperpraw-Trace ID of the failed request.
	Trace string `json:"trace,omitempty"`
}

// ErrorBody is the uniform error envelope both tiers emit for every
// non-2xx response: {"error":{"code":…,"message":…}}. Older clients
// that decoded {"error":"<string>"} still work against old servers; the
// Go client in client/ understands both shapes.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// JobStatus is the lifecycle state of a submitted partition job.
type JobStatus string

const (
	JobQueued  JobStatus = "queued"
	JobRunning JobStatus = "running"
	JobDone    JobStatus = "done"
	JobFailed  JobStatus = "failed"
)

// JobInfo is the wire representation of a job's state.
type JobInfo struct {
	ID          string      `json:"id"`
	Status      JobStatus   `json:"status"`
	Error       string      `json:"error,omitempty"`
	Algorithm   string      `json:"algorithm"`
	Machine     MachineSpec `json:"machine"`
	Hypergraph  string      `json:"hypergraph,omitempty"`
	Fingerprint string      `json:"fingerprint,omitempty"`
	SubmittedAt int64       `json:"submitted_at_unix_ms,omitempty"`
	StartedAt   int64       `json:"started_at_unix_ms,omitempty"`
	FinishedAt  int64       `json:"finished_at_unix_ms,omitempty"`
	// Backend is the hpserve base URL a gateway routed this job to; empty
	// when the job was submitted to an hpserve node directly.
	Backend string `json:"backend,omitempty"`
	// Persisted reports that the job is journaled in the backend's durable
	// store and will survive a backend restart: finished jobs keep serving
	// their results, unfinished ones re-enter the queue.
	Persisted bool `json:"persisted,omitempty"`
	// Stripped reports that the gateway no longer retains the job's wire
	// request (evicted by the retention cap): the job stays queryable but
	// can no longer fail over to another backend if its backend is lost.
	Stripped bool `json:"stripped,omitempty"`
	// Trace is the request's X-Hyperpraw-Trace ID: generated at the
	// gateway (or by hpserve for direct submissions) and carried through
	// every proxied call, so one request can be followed across tiers and
	// log lines.
	Trace string `json:"trace,omitempty"`
	// QueueWaitMS is how long the job sat queued before a worker picked it
	// up; ExecMS how long execution took. Both are stamped when the
	// respective phase ends, so clients see per-job timing without
	// scraping /metrics.
	QueueWaitMS float64 `json:"queue_wait_ms,omitempty"`
	ExecMS      float64 `json:"exec_ms,omitempty"`
}

// JobsPage is the body of GET /v1/jobs: one page of the job table in
// submission order. NextAfter, when non-empty, is the cursor for the next
// page (pass it back as ?after=); an empty NextAfter means the listing
// is exhausted. Requests without ?limit= get the whole table and no
// cursor — the pre-pagination wire shape, byte-compatible for old
// clients.
type JobsPage struct {
	Jobs      []JobInfo `json:"jobs"`
	NextAfter string    `json:"next_after,omitempty"`
}

// BatchRequest is the body of POST /v1/partition/batch: many partition
// jobs submitted in one round trip. Jobs are independent — one invalid
// entry does not reject the rest.
type BatchRequest struct {
	Jobs []PartitionRequest `json:"jobs"`
}

// BatchItem is the per-job outcome of a batch submission: either the
// accepted job's info or the validation/submission error, never both.
type BatchItem struct {
	Job   *JobInfo `json:"job,omitempty"`
	Error string   `json:"error,omitempty"`
}

// BatchResponse is the body returned by POST /v1/partition/batch; Jobs[i]
// answers BatchRequest.Jobs[i].
type BatchResponse struct {
	Jobs     []BatchItem `json:"jobs"`
	Accepted int         `json:"accepted"`
	Rejected int         `json:"rejected"`
}

// IterationPoint is the wire mirror of one restreaming iteration's
// statistics (core IterationStats): recorded in JobResult.History and
// streamed live as ProgressEvents.
type IterationPoint struct {
	Iteration   int     `json:"iteration"`
	CommCost    float64 `json:"comm_cost"`
	Imbalance   float64 `json:"imbalance"`
	Alpha       float64 `json:"alpha"`
	Moves       int     `json:"moves"`
	InTolerance bool    `json:"in_tolerance"`
}

// PointFromStats converts library iteration statistics to their wire form.
func PointFromStats(st IterationStats) IterationPoint {
	return IterationPoint{
		Iteration:   st.Iteration,
		CommCost:    st.CommCost,
		Imbalance:   st.Imbalance,
		Alpha:       st.Alpha,
		Moves:       st.Moves,
		InTolerance: st.InTolerance,
	}
}

// ProgressEvent is one frame of the GET /v1/jobs/{id}/events SSE stream.
// Seq numbers frames from 1 per job so a reconnecting consumer can skip
// frames it has already seen. Non-final events carry an IterationPoint;
// the final event instead carries the job's terminal status (and error,
// when it failed).
type ProgressEvent struct {
	JobID string `json:"job_id"`
	Seq   int    `json:"seq"`
	IterationPoint
	Final  bool      `json:"final,omitempty"`
	Status JobStatus `json:"status,omitempty"`
	Error  string    `json:"error,omitempty"`
}

// BackendStatus is one backend's state in a gateway's health report.
type BackendStatus struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// Breaker is the backend's circuit-breaker state: "closed" (serving),
	// "open" (ejected, cooling down) or "half-open" (one probe in flight
	// decides between the two).
	Breaker string `json:"breaker,omitempty"`
	// Fails counts consecutive failed probes or proxied calls; it resets to
	// zero on the first success after re-admission.
	Fails int `json:"fails,omitempty"`
	// Saturated reports that the backend's last /healthz probe showed its
	// queue above the gateway's spill watermark (or the backend answered
	// 429 since): the gateway spills new work to the next-ranked backend
	// until a probe shows the queue back under the watermark.
	Saturated bool `json:"saturated,omitempty"`
	// Queued is the backend queue depth observed by the last health probe.
	Queued int `json:"queued,omitempty"`
	// Jobs is how many of the gateway's retained jobs are currently routed
	// to this backend.
	Jobs int `json:"jobs"`
	// Durable reports that the backend advertises a durable job store
	// (its /healthz Durable field): the gateway waits out short outages of
	// such a backend instead of immediately failing its jobs over, because
	// a restart recovers them more cheaply than a recomputation.
	Durable bool `json:"durable,omitempty"`
}

// MemberSpec is the body of POST /v1/cluster/members: a backend
// announcing itself to the gateway's member table. hpserve sends it on
// startup (-announce) and again on every heartbeat to renew its lease.
type MemberSpec struct {
	// URL is the member's base URL as the gateway should dial it; it is
	// the member's identity in the table.
	URL string `json:"url"`
	// Durable declares that the member journals jobs to a durable store;
	// the gateway keys its restart-recovery behaviour off it until the
	// first health probe confirms or corrects the claim.
	Durable bool `json:"durable,omitempty"`
	// TTLMS is the requested lease duration in milliseconds; 0 accepts
	// the gateway's default. A member that misses every heartbeat within
	// its lease is ejected and its jobs are drained to peers.
	TTLMS int64 `json:"ttl_ms,omitempty"`
}

// MemberInfo is one member's record in the gateway's cluster view,
// returned by the /v1/cluster/members routes.
type MemberInfo struct {
	URL string `json:"url"`
	// Static marks a member seeded from the -backends flag: it has no
	// lease and survives until removed explicitly.
	Static  bool `json:"static,omitempty"`
	Durable bool `json:"durable,omitempty"`
	Healthy bool `json:"healthy"`
	// Breaker is the member's circuit-breaker state ("closed", "open",
	// "half-open").
	Breaker   string `json:"breaker,omitempty"`
	Saturated bool   `json:"saturated,omitempty"`
	Queued    int    `json:"queued,omitempty"`
	// LeaseRemainingMS is how long until the member's registration lapses
	// without a heartbeat; omitted for static members.
	LeaseRemainingMS int64 `json:"lease_remaining_ms,omitempty"`
}

// MemberList is the body of GET /v1/cluster/members: the gateway's
// member table at one membership epoch.
type MemberList struct {
	// Epoch increments on every membership change (registration,
	// deregistration, lease expiry); state changes on existing members do
	// not bump it.
	Epoch   uint64       `json:"epoch"`
	Members []MemberInfo `json:"members"`
}

// GatewayHealth is the body of an hpgate GET /healthz.
type GatewayHealth struct {
	Status   string          `json:"status"`
	Backends []BackendStatus `json:"backends"`
	Jobs     int             `json:"jobs"`
	// Epoch is the current membership epoch; Members is the cluster view
	// behind the Backends report (lease and registration detail).
	Epoch   uint64       `json:"epoch,omitempty"`
	Members []MemberInfo `json:"members,omitempty"`
	// ResultCache reports the gateway's own result cache (enabled by
	// hpgate -result-cache-bytes); nil when disabled.
	ResultCache *CacheStats `json:"result_cache,omitempty"`
	// Telemetry is the tier's self-description snapshot (uptime, build,
	// job totals); nil when the gateway runs without a metrics registry.
	Telemetry *TelemetrySnapshot `json:"telemetry,omitempty"`
}

// TelemetrySnapshot is the telemetry summary embedded in both tiers'
// /healthz bodies: enough to see at a glance how long the process has been
// up, what build it is, and how much work it has done, without scraping
// /metrics.
type TelemetrySnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	GoVersion     string  `json:"go_version,omitempty"`
	// JobsSubmitted/JobsCompleted/JobsFailed are process-lifetime totals
	// (completed excludes failed). For a gateway these count submissions
	// accepted and terminal outcomes observed at the gateway tier.
	JobsSubmitted uint64 `json:"jobs_submitted"`
	JobsCompleted uint64 `json:"jobs_completed"`
	JobsFailed    uint64 `json:"jobs_failed"`
}

// JobResult is the wire representation of a finished job's payload,
// returned by GET /v1/jobs/{id}/result.
type JobResult struct {
	Parts      []int32       `json:"parts"`
	K          int           `json:"k"`
	Report     QualityReport `json:"report"`
	Iterations int           `json:"iterations,omitempty"`
	StopReason string        `json:"stop_reason,omitempty"`
	// History holds the per-iteration statistics of the restreaming run
	// (the service records them for every restreaming job so progress can
	// be replayed to late or cache-hitting SSE subscribers). Empty for the
	// multilevel and hierarchical baselines, which do not restream.
	History   []IterationPoint `json:"history,omitempty"`
	Bench     *BenchResult     `json:"bench,omitempty"`
	ElapsedMS float64          `json:"elapsed_ms"`
	// EnvCacheHit reports whether the machine's profiled Environment was
	// served from cache; ResultCacheHit whether the whole partition was.
	EnvCacheHit    bool `json:"env_cache_hit"`
	ResultCacheHit bool `json:"result_cache_hit"`
	// Kernel holds the streaming kernel's activity counters for the run
	// that computed this result (nil for the non-restreaming baselines and
	// for results computed before the counters existed). A cache-hitting
	// job returns the computing run's counters.
	Kernel *KernelStats `json:"kernel,omitempty"`
}

// CacheStats is a point-in-time snapshot of one service cache.
type CacheStats struct {
	Size      int    `json:"size"`
	Capacity  int    `json:"capacity"`
	Bytes     int64  `json:"bytes,omitempty"`
	MaxBytes  int64  `json:"max_bytes,omitempty"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// ServeHealth is the body of GET /healthz.
type ServeHealth struct {
	Status      string     `json:"status"`
	Workers     int        `json:"workers"`
	QueueDepth  int        `json:"queue_depth"`
	Queued      int        `json:"queued"`
	Running     int        `json:"running"`
	Jobs        int        `json:"jobs"`
	EnvCache    CacheStats `json:"env_cache"`
	ResultCache CacheStats `json:"result_cache"`
	// InflightBytes is the total inline-upload payload held by queued and
	// running jobs; MaxInflightBytes the admission bound (0 = unlimited).
	InflightBytes    int64 `json:"inflight_bytes,omitempty"`
	MaxInflightBytes int64 `json:"max_inflight_bytes,omitempty"`
	// Durable reports whether the service journals jobs to a durable store
	// (hpserve -store); StoredJobs is how many jobs that store holds. An
	// hpgate gateway keys its restart-recovery behavior off Durable.
	Durable    bool `json:"durable,omitempty"`
	StoredJobs int  `json:"stored_jobs,omitempty"`
	// Telemetry is the tier's self-description snapshot (uptime, build,
	// job totals); nil when the service runs without a metrics registry.
	Telemetry *TelemetrySnapshot `json:"telemetry,omitempty"`
}

// Fingerprint returns a deterministic 128-bit hex digest of the hypergraph's
// structure and weights (the name is excluded). Two hypergraphs with equal
// vertex sets, hyperedges, pin sets and weights share a fingerprint, making
// it usable as a cache key for partition results — and, since the graph
// store deduplicates arenas by the same digest, as the resource ID of a
// committed hypergraph.
func Fingerprint(h *Hypergraph) string {
	return hypergraph.Fingerprint(h)
}

// MarshalHMetis serialises h to hMetis text, the inline upload format of
// PartitionRequest.HMetis.
func MarshalHMetis(h *Hypergraph) (string, error) {
	var sb strings.Builder
	if err := hypergraph.WriteHMetis(&sb, h); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// UnmarshalHMetis parses hMetis text (the counterpart of MarshalHMetis).
func UnmarshalHMetis(r io.Reader) (*Hypergraph, error) {
	return hypergraph.ReadHMetis(r)
}
