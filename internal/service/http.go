package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"hyperpraw"
	"hyperpraw/internal/faultpoint"
	"hyperpraw/internal/telemetry"
)

// MaxBatchJobs bounds one POST /v1/partition/batch request: large enough
// for any sensible fan-out, small enough that a single request cannot fill
// the whole job queue. Shared by the hpgate gateway so both tiers accept
// the same batches.
const MaxBatchJobs = 256

// NewHandler wraps a Service in its HTTP JSON API:
//
//	POST /v1/partition          submit a job (JSON PartitionRequest, or a raw
//	                            hMetis body with query-parameter options)
//	POST /v1/partition/batch    submit many jobs in one request
//	POST /v1/hypergraphs        upload a hypergraph resource (one-shot, or a
//	                            resumable session — see hypergraphs.go for
//	                            the whole resource surface)
//	GET  /v1/jobs               list jobs (?limit= ?after= ?state=)
//	GET  /v1/jobs/{id}          job status
//	GET  /v1/jobs/{id}/result   finished payload (202 while pending,
//	                            422 when the job failed)
//	GET  /v1/jobs/{id}/events   SSE stream of per-iteration progress
//	GET  /v1/algorithms         supported algorithm names
//	GET  /healthz               liveness + queue/cache statistics
//	GET  /metrics               Prometheus exposition (with Config.Metrics)
//
// Every route runs behind telemetry.Instrument: responses carry (and the
// request context holds) an X-Hyperpraw-Trace ID, and with Config.Metrics
// set the shared HTTP families record method/route/status/latency.
//
// Routing is done by hand so the handler works on Go 1.21 muxes (no method
// patterns or wildcards).
func NewHandler(s *Service) http.Handler {
	mux := http.NewServeMux()
	if s.metrics != nil && s.metrics.reg != nil {
		mux.Handle("/metrics", s.metrics.reg.Handler())
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, s.Health())
	})
	mux.HandleFunc("/v1/algorithms", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string][]string{"algorithms": Algorithms()})
	})
	mux.HandleFunc("/v1/partition", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			WriteError(w, r, http.StatusMethodNotAllowed, hyperpraw.ErrCodeMethodNotAllowed, "POST required")
			return
		}
		handleSubmit(s, w, r)
	})
	mux.HandleFunc("/v1/partition/batch", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			WriteError(w, r, http.StatusMethodNotAllowed, hyperpraw.ErrCodeMethodNotAllowed, "POST required")
			return
		}
		handleBatch(s, w, r)
	})
	mux.HandleFunc("/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			WriteError(w, r, http.StatusMethodNotAllowed, hyperpraw.ErrCodeMethodNotAllowed, "GET required")
			return
		}
		limit, after, state, err := ParseJobsQuery(r)
		if err != nil {
			WriteError(w, r, http.StatusBadRequest, hyperpraw.ErrCodeInvalidRequest, err.Error())
			return
		}
		WriteJSON(w, http.StatusOK, s.JobsPage(limit, after, state))
	})
	mux.HandleFunc("/v1/jobs/", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			WriteError(w, r, http.StatusMethodNotAllowed, hyperpraw.ErrCodeMethodNotAllowed, "GET required")
			return
		}
		handleJob(s, w, r)
	})
	registerHypergraphRoutes(mux, s)
	var m *telemetry.HTTPMetrics
	if s.metrics != nil {
		m = s.metrics.http
	}
	return telemetry.Instrument(m, withFaults(mux))
}

// withFaults is the service tier's HTTP fault-injection shim: armed
// service.http.slow points delay every response, service.http.drop severs
// the connection without one. Disarmed (always, outside chaos runs) it costs
// one atomic load per request.
func withFaults(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// A slow fault has already slept inside Fire by the time it returns.
		faultpoint.Fire(faultpoint.ServiceHTTPSlow)
		if f := faultpoint.Fire(faultpoint.ServiceHTTPDrop); f != nil && f.Action == faultpoint.ActDrop {
			// ErrAbortHandler closes the connection with no response and is
			// suppressed by net/http's panic logging.
			panic(http.ErrAbortHandler)
		}
		next.ServeHTTP(w, r)
	})
}

// retryAfter stamps the live backoff hint on a rejection about to be
// written; 429 and 503 responses carry it so clients (and the hpgate
// gateway) can pace their retries off real queue waits.
func retryAfter(s *Service, w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(s.RetryAfter()))
}

func handleSubmit(s *Service, w http.ResponseWriter, r *http.Request) {
	wire, err := DecodeSubmission(r)
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, hyperpraw.ErrCodeInvalidRequest, err.Error())
		return
	}
	req, err := ParseRequest(wire)
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, hyperpraw.ErrCodeInvalidRequest, err.Error())
		return
	}
	req.Trace = telemetry.TraceFrom(r.Context())
	info, err := s.Submit(req)
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrInflightBytes):
		retryAfter(s, w)
		WriteError(w, r, http.StatusTooManyRequests, hyperpraw.ErrCodeOverloaded, err.Error())
	case errors.Is(err, ErrClosed):
		retryAfter(s, w)
		WriteError(w, r, http.StatusServiceUnavailable, hyperpraw.ErrCodeUnavailable, err.Error())
	case errors.Is(err, ErrUnknownHypergraph):
		WriteError(w, r, http.StatusNotFound, hyperpraw.ErrCodeNotFound, err.Error())
	case err != nil:
		WriteError(w, r, http.StatusInternalServerError, hyperpraw.ErrCodeInternal, err.Error())
	default:
		WriteJSON(w, http.StatusAccepted, info)
	}
}

// DecodeSubmission accepts either a JSON PartitionRequest body or a raw
// hMetis upload whose algorithm/machine/options arrive as query parameters
// (?algorithm=aware&machine=cloud&cores=32&seed=2&imbalance=1.2). Both
// serving tiers decode submissions through it, so any client of hpserve
// can point at hpgate unchanged.
func DecodeSubmission(r *http.Request) (hyperpraw.PartitionRequest, error) {
	defer r.Body.Close()
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "application/json") {
		var wire hyperpraw.PartitionRequest
		dec := json.NewDecoder(io.LimitReader(r.Body, 64<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&wire); err != nil {
			return hyperpraw.PartitionRequest{}, fmt.Errorf("bad JSON request: %w", err)
		}
		return wire, nil
	}

	body, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		return hyperpraw.PartitionRequest{}, fmt.Errorf("reading upload: %w", err)
	}
	q := r.URL.Query()
	wire := hyperpraw.PartitionRequest{
		Algorithm: q.Get("algorithm"),
		HMetis:    string(body),
		Machine:   hyperpraw.MachineSpec{Kind: q.Get("machine")},
	}
	if v := q.Get("cores"); v != "" {
		if wire.Machine.Cores, err = strconv.Atoi(v); err != nil {
			return hyperpraw.PartitionRequest{}, fmt.Errorf("bad cores %q", v)
		}
	}
	if v := q.Get("seed"); v != "" {
		if wire.Machine.Seed, err = strconv.ParseUint(v, 10, 64); err != nil {
			return hyperpraw.PartitionRequest{}, fmt.Errorf("bad seed %q", v)
		}
	}
	if v := q.Get("imbalance"); v != "" {
		tol, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return hyperpraw.PartitionRequest{}, fmt.Errorf("bad imbalance %q", v)
		}
		wire.Options = &hyperpraw.ServeOptions{ImbalanceTolerance: tol}
	}
	return wire, nil
}

// DecodeJSON parses a bounded JSON request body into out, rejecting
// unknown fields. Small control-plane bodies (the gateway's
// cluster-membership routes) decode through it.
func DecodeJSON(r *http.Request, out any) error {
	defer r.Body.Close()
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		return fmt.Errorf("bad JSON body: %w", err)
	}
	return nil
}

// DecodeBatch parses and bounds-checks a BatchRequest body; both serving
// tiers (hpserve and hpgate) accept batches through it.
func DecodeBatch(r *http.Request) (hyperpraw.BatchRequest, error) {
	defer r.Body.Close()
	var batch hyperpraw.BatchRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, 256<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&batch); err != nil {
		return hyperpraw.BatchRequest{}, fmt.Errorf("bad JSON batch: %w", err)
	}
	if len(batch.Jobs) == 0 {
		return hyperpraw.BatchRequest{}, fmt.Errorf("batch has no jobs")
	}
	if len(batch.Jobs) > MaxBatchJobs {
		return hyperpraw.BatchRequest{}, fmt.Errorf("batch of %d jobs exceeds the limit of %d", len(batch.Jobs), MaxBatchJobs)
	}
	return batch, nil
}

// handleBatch submits every job of a BatchRequest, answering each entry
// independently: a malformed or rejected entry yields an error item, not a
// rejection of the whole batch. 202 as long as at least one job was
// accepted, 400 when none were.
func handleBatch(s *Service, w http.ResponseWriter, r *http.Request) {
	batch, err := DecodeBatch(r)
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, hyperpraw.ErrCodeInvalidRequest, err.Error())
		return
	}
	resp := hyperpraw.BatchResponse{Jobs: make([]hyperpraw.BatchItem, len(batch.Jobs))}
	var overloaded, closed bool
	for i, wire := range batch.Jobs {
		req, err := ParseRequest(wire)
		if err == nil {
			req.Trace = telemetry.TraceFrom(r.Context())
			var info hyperpraw.JobInfo
			if info, err = s.Submit(req); err == nil {
				resp.Jobs[i].Job = &info
			}
		}
		if err != nil {
			overloaded = overloaded || errors.Is(err, ErrQueueFull) || errors.Is(err, ErrInflightBytes)
			closed = closed || errors.Is(err, ErrClosed)
			resp.Jobs[i].Error = err.Error()
			resp.Rejected++
		} else {
			resp.Accepted++
		}
	}
	// A fully rejected batch keeps the single-submit status mapping so
	// clients can tell transient overload (retry) from a bad request.
	status := http.StatusAccepted
	if resp.Accepted == 0 {
		switch {
		case overloaded:
			retryAfter(s, w)
			status = http.StatusTooManyRequests
		case closed:
			retryAfter(s, w)
			status = http.StatusServiceUnavailable
		default:
			status = http.StatusBadRequest
		}
	}
	WriteJSON(w, status, resp)
}

// ParseJobsQuery reads the pagination and filter parameters of a
// GET /v1/jobs request: ?limit=N (page size, 0 = everything), ?after=ID
// (resume strictly past that job ID) and ?state= (queued | running |
// done | failed). Both serving tiers accept listings through it.
func ParseJobsQuery(r *http.Request) (limit int, after string, state hyperpraw.JobStatus, err error) {
	q := r.URL.Query()
	if v := q.Get("limit"); v != "" {
		limit, err = strconv.Atoi(v)
		if err != nil || limit < 0 {
			return 0, "", "", fmt.Errorf("bad limit %q", v)
		}
	}
	after = q.Get("after")
	if v := q.Get("state"); v != "" {
		switch hyperpraw.JobStatus(v) {
		case hyperpraw.JobQueued, hyperpraw.JobRunning, hyperpraw.JobDone, hyperpraw.JobFailed:
			state = hyperpraw.JobStatus(v)
		default:
			return 0, "", "", fmt.Errorf("bad state %q (want queued, running, done or failed)", v)
		}
	}
	return limit, after, state, nil
}

// ParseAfter reads the ?after=N resume point of an events request (the
// last SSE sequence number the consumer has already seen).
func ParseAfter(r *http.Request) (int, error) {
	v := r.URL.Query().Get("after")
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad after %q", v)
	}
	return n, nil
}

// BeginSSE switches the response into a server-sent-event stream and
// returns its flusher; ok is false (with the error already written) when
// the ResponseWriter cannot stream.
func BeginSSE(w http.ResponseWriter, r *http.Request) (http.Flusher, bool) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, r, http.StatusInternalServerError, hyperpraw.ErrCodeInternal, "streaming unsupported")
		return nil, false
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	return flusher, true
}

// handleEvents streams job id's per-iteration progress as server-sent
// events, ending with the "done" frame once the job reaches a terminal
// state. ?after=N resumes after sequence number N (the SSE id field), so a
// reconnecting consumer — the hpgate proxy in particular — can skip frames
// it has already forwarded.
func handleEvents(s *Service, w http.ResponseWriter, r *http.Request, id string) {
	after, err := ParseAfter(r)
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, hyperpraw.ErrCodeInvalidRequest, err.Error())
		return
	}
	// Hold the progress log for the whole stream: if retention pruning
	// evicts the job mid-stream the table entry disappears, but the sealed
	// log still delivers the remaining frames and the terminal one.
	plog, ok := s.progressFor(id)
	if !ok {
		WriteError(w, r, http.StatusNotFound, hyperpraw.ErrCodeNotFound, "unknown job "+id)
		return
	}
	flusher, ok := BeginSSE(w, r)
	if !ok {
		return
	}
	s.metrics.sseGauge(1)
	defer s.metrics.sseGauge(-1)

	if f := faultpoint.Fire(faultpoint.ServiceSSEStall); f != nil && f.Action == faultpoint.ActStall {
		// Injected stall: the stream stays open but never produces another
		// frame — the pathological upstream the gateway proxy must survive.
		<-r.Context().Done()
		return
	}

	seq := after
	for {
		evs, done, changed := plog.since(seq)
		for _, ev := range evs {
			if err := WriteSSE(w, ev); err != nil {
				return
			}
			seq = ev.Seq
		}
		if len(evs) > 0 {
			flusher.Flush()
		}
		if done {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-changed:
		}
	}
}

func handleJob(s *Service, w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" {
		WriteError(w, r, http.StatusNotFound, hyperpraw.ErrCodeNotFound, "missing job id")
		return
	}
	switch sub {
	case "":
		info, ok := s.Job(id)
		if !ok {
			WriteError(w, r, http.StatusNotFound, hyperpraw.ErrCodeNotFound, "unknown job "+id)
			return
		}
		WriteJSON(w, http.StatusOK, info)
	case "result":
		res, info, ok := s.Result(id)
		switch {
		case !ok:
			WriteError(w, r, http.StatusNotFound, hyperpraw.ErrCodeNotFound, "unknown job "+id)
		case info.Status == hyperpraw.JobFailed:
			WriteError(w, r, http.StatusUnprocessableEntity, hyperpraw.ErrCodeJobFailed, info.Error)
		case res == nil:
			WriteJSON(w, http.StatusAccepted, info) // still queued or running
		default:
			WriteJSON(w, http.StatusOK, res)
		}
	case "events":
		handleEvents(s, w, r, id)
	default:
		WriteError(w, r, http.StatusNotFound, hyperpraw.ErrCodeNotFound, "unknown resource "+sub)
	}
}

// WriteJSON writes v as a compact, one-line JSON response; shared by both
// serving tiers so error and payload shapes stay identical.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone mid-write is not actionable
}

// WriteError writes the uniform error envelope both serving tiers emit
// for every non-2xx response: {"error":{"code":…,"message":…}}. code is a
// constant from the hyperpraw.ErrCode catalog so clients branch on stable
// identifiers instead of matching message strings. The envelope picks up
// the retry hint from an already-set Retry-After header and the trace ID
// from the request context, so call sites only name what went wrong.
func WriteError(w http.ResponseWriter, r *http.Request, status int, code, msg string) {
	body := hyperpraw.ErrorBody{Error: hyperpraw.ErrorDetail{Code: code, Message: msg}}
	if v := w.Header().Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
			body.Error.RetryAfterMS = int64(secs) * 1000
		}
	}
	if r != nil {
		body.Error.Trace = telemetry.TraceFrom(r.Context())
	}
	WriteJSON(w, status, body)
}
