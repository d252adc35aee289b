package gateway

import (
	"errors"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"hyperpraw"
	"hyperpraw/internal/service"
	"hyperpraw/internal/telemetry"
)

// NewHandler wraps a Gateway in the same HTTP JSON API cmd/hpserve serves
// (the shared plumbing — JSON shapes, batch bounds, SSE framing — comes
// from internal/service so the tiers cannot drift apart), plus the
// gateway extensions:
//
//	POST /v1/partition          submit a job (routed by fingerprint)
//	POST /v1/partition/batch    submit many jobs, fanned out across backends
//	GET  /v1/jobs               list gateway jobs (?limit= ?after= ?state=)
//	GET  /v1/jobs/{id}          job status (proxied, with failover)
//	GET  /v1/jobs/{id}/result   finished payload (proxied, with failover)
//	GET  /v1/jobs/{id}/events   SSE progress (proxied, with failover)
//	*    /v1/hypergraphs[/...]  hypergraph resources on the gateway's own
//	                            store (replicated to backends on first
//	                            reference; DELETE fans out to the fleet)
//	GET  /v1/algorithms         supported algorithm names
//	GET  /v1/backends           backend set and health
//	GET  /v1/cluster/members    cluster member table (epoch + leases)
//	POST /v1/cluster/members    register a member / renew its lease
//	DELETE /v1/cluster/members/{url}  deregister a member and drain its jobs
//	GET  /healthz               gateway + backend health
//	GET  /metrics               Prometheus exposition (with Config.Metrics)
//
// Every route runs behind telemetry.Instrument: the gateway mints (or
// adopts) an X-Hyperpraw-Trace ID per request, which the proxied backend
// calls carry onward, so one submission is followable across both tiers.
func NewHandler(g *Gateway) http.Handler {
	mux := http.NewServeMux()
	if g.metrics != nil && g.metrics.reg != nil {
		mux.Handle("/metrics", g.metrics.reg.Handler())
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, g.Health())
	})
	mux.HandleFunc("/v1/backends", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, map[string]any{"backends": g.Backends()})
	})
	mux.HandleFunc("/v1/cluster/members", func(w http.ResponseWriter, r *http.Request) {
		handleMembers(g, w, r)
	})
	mux.HandleFunc("/v1/algorithms", func(w http.ResponseWriter, r *http.Request) {
		service.WriteJSON(w, http.StatusOK, map[string][]string{"algorithms": service.Algorithms()})
	})
	mux.HandleFunc("/v1/partition", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			service.WriteError(w, r, http.StatusMethodNotAllowed, hyperpraw.ErrCodeMethodNotAllowed, "POST required")
			return
		}
		handleSubmit(g, w, r)
	})
	mux.HandleFunc("/v1/partition/batch", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			service.WriteError(w, r, http.StatusMethodNotAllowed, hyperpraw.ErrCodeMethodNotAllowed, "POST required")
			return
		}
		handleBatch(g, w, r)
	})
	mux.HandleFunc("/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			service.WriteError(w, r, http.StatusMethodNotAllowed, hyperpraw.ErrCodeMethodNotAllowed, "GET required")
			return
		}
		limit, after, state, err := service.ParseJobsQuery(r)
		if err != nil {
			service.WriteError(w, r, http.StatusBadRequest, hyperpraw.ErrCodeInvalidRequest, err.Error())
			return
		}
		service.WriteJSON(w, http.StatusOK, g.JobsPage(limit, after, state))
	})
	service.RegisterHypergraphRoutes(mux, g.Graphs(), func(r *http.Request, id string) error {
		return g.DeleteGraph(r.Context(), id)
	})
	mux.HandleFunc("/v1/jobs/", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			service.WriteError(w, r, http.StatusMethodNotAllowed, hyperpraw.ErrCodeMethodNotAllowed, "GET required")
			return
		}
		handleJob(g, w, r)
	})
	var m *telemetry.HTTPMetrics
	if g.metrics != nil {
		m = g.metrics.http
	}
	// The member resource routes ahead of the mux: its final path segment is
	// a path-escaped URL whose decoded slashes ServeMux would "clean" into a
	// 301 — and clients turn a redirected DELETE into a GET.
	return telemetry.Instrument(m, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.EscapedPath(), "/v1/cluster/members/") {
			handleMember(g, w, r)
			return
		}
		mux.ServeHTTP(w, r)
	}))
}

// handleMembers serves the member-collection routes: GET lists the table
// at its current epoch, POST registers a member (or renews its lease —
// hpserve's heartbeat is the same request repeated).
func handleMembers(g *Gateway, w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		service.WriteJSON(w, http.StatusOK, g.Members())
	case http.MethodPost:
		var spec hyperpraw.MemberSpec
		if err := service.DecodeJSON(r, &spec); err != nil {
			service.WriteError(w, r, http.StatusBadRequest, hyperpraw.ErrCodeInvalidRequest, err.Error())
			return
		}
		info, err := g.RegisterMember(spec)
		if err != nil {
			service.WriteError(w, r, http.StatusBadRequest, hyperpraw.ErrCodeInvalidRequest, err.Error())
			return
		}
		service.WriteJSON(w, http.StatusOK, info)
	default:
		service.WriteError(w, r, http.StatusMethodNotAllowed, hyperpraw.ErrCodeMethodNotAllowed, "GET or POST required")
	}
}

// handleMember serves DELETE /v1/cluster/members/{url}: deregistration
// with a synchronous drain of the member's jobs to its rendezvous peers.
// The member URL is path-escaped into the final segment.
func handleMember(g *Gateway, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodDelete {
		service.WriteError(w, r, http.StatusMethodNotAllowed, hyperpraw.ErrCodeMethodNotAllowed, "DELETE required")
		return
	}
	escaped := strings.TrimPrefix(r.URL.EscapedPath(), "/v1/cluster/members/")
	memberURL, err := url.PathUnescape(escaped)
	if err != nil || memberURL == "" {
		service.WriteError(w, r, http.StatusBadRequest, hyperpraw.ErrCodeInvalidRequest, "bad member url")
		return
	}
	if err := g.DeregisterMember(memberURL); err != nil {
		service.WriteError(w, r, http.StatusNotFound, hyperpraw.ErrCodeNotFound, "unknown member "+memberURL)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func handleSubmit(g *Gateway, w http.ResponseWriter, r *http.Request) {
	wire, err := service.DecodeSubmission(r)
	if err != nil {
		service.WriteError(w, r, http.StatusBadRequest, hyperpraw.ErrCodeInvalidRequest, err.Error())
		return
	}
	info, err := g.Submit(r.Context(), wire)
	switch {
	case errors.Is(err, ErrBadRequest):
		service.WriteError(w, r, http.StatusBadRequest, hyperpraw.ErrCodeInvalidRequest, err.Error())
	case errors.Is(err, ErrUnknownGraph):
		service.WriteError(w, r, http.StatusNotFound, hyperpraw.ErrCodeNotFound, err.Error())
	case errors.Is(err, ErrSaturated):
		// The whole fleet is at its admission limits: propagate the 429
		// and the backends' best backoff hint instead of disguising
		// overload as an outage (503).
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterHint(err)))
		service.WriteError(w, r, http.StatusTooManyRequests, hyperpraw.ErrCodeOverloaded, err.Error())
	case errors.Is(err, ErrNoBackends):
		service.WriteError(w, r, http.StatusServiceUnavailable, hyperpraw.ErrCodeUnavailable, err.Error())
	case err != nil:
		service.WriteError(w, r, http.StatusInternalServerError, hyperpraw.ErrCodeInternal, err.Error())
	default:
		service.WriteJSON(w, http.StatusAccepted, info)
	}
}

// retryAfterHint extracts a shed verdict's Retry-After seconds, floored at
// 1 so the header is always a valid positive delay.
func retryAfterHint(err error) int {
	secs := 1
	var se *SaturatedError
	if errors.As(err, &se) && se.RetryAfter > secs {
		secs = se.RetryAfter
	}
	return secs
}

// handleBatch fans a batch out across the backends concurrently — each
// entry routes by its own fingerprint, so a batch of distinct hypergraphs
// spreads over the backend set while resubmissions of the same hypergraph
// stay together.
func handleBatch(g *Gateway, w http.ResponseWriter, r *http.Request) {
	batch, err := service.DecodeBatch(r)
	if err != nil {
		service.WriteError(w, r, http.StatusBadRequest, hyperpraw.ErrCodeInvalidRequest, err.Error())
		return
	}
	resp := hyperpraw.BatchResponse{Jobs: make([]hyperpraw.BatchItem, len(batch.Jobs))}
	errs := make([]error, len(batch.Jobs))
	var wg sync.WaitGroup
	for i, wire := range batch.Jobs {
		wg.Add(1)
		go func(i int, wire hyperpraw.PartitionRequest) {
			defer wg.Done()
			info, err := g.Submit(r.Context(), wire)
			if err != nil {
				errs[i] = err
				resp.Jobs[i].Error = err.Error()
			} else {
				resp.Jobs[i].Job = &info
			}
		}(i, wire)
	}
	wg.Wait()
	noBackends, allSaturated := false, true
	var saturatedErr error
	for i, item := range resp.Jobs {
		if item.Job != nil {
			resp.Accepted++
			continue
		}
		resp.Rejected++
		noBackends = noBackends || errors.Is(errs[i], ErrNoBackends)
		if errors.Is(errs[i], ErrSaturated) {
			if saturatedErr == nil || retryAfterHint(errs[i]) > retryAfterHint(saturatedErr) {
				saturatedErr = errs[i]
			}
		} else {
			allSaturated = false
		}
	}
	// A fully rejected batch distinguishes fleet saturation (429 plus the
	// backends' backoff hint) from "no backend could take it" (transient,
	// retryable 503) and from malformed entries.
	status := http.StatusAccepted
	if resp.Accepted == 0 {
		switch {
		case allSaturated && saturatedErr != nil:
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterHint(saturatedErr)))
			status = http.StatusTooManyRequests
		case noBackends:
			status = http.StatusServiceUnavailable
		default:
			status = http.StatusBadRequest
		}
	}
	service.WriteJSON(w, status, resp)
}

func handleJob(g *Gateway, w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" {
		service.WriteError(w, r, http.StatusNotFound, hyperpraw.ErrCodeNotFound, "missing job id")
		return
	}
	switch sub {
	case "":
		info, err := g.Job(r.Context(), id)
		switch {
		case errors.Is(err, ErrUnknownJob):
			service.WriteError(w, r, http.StatusNotFound, hyperpraw.ErrCodeNotFound, "unknown job "+id)
		case errors.Is(err, ErrNotRecoverable):
			service.WriteError(w, r, http.StatusGone, hyperpraw.ErrCodeNotFound, err.Error())
		case err != nil:
			service.WriteError(w, r, http.StatusBadGateway, hyperpraw.ErrCodeUnavailable, err.Error())
		default:
			service.WriteJSON(w, http.StatusOK, info)
		}
	case "result":
		res, info, err := g.Result(r.Context(), id)
		switch {
		case errors.Is(err, ErrUnknownJob):
			service.WriteError(w, r, http.StatusNotFound, hyperpraw.ErrCodeNotFound, "unknown job "+id)
		case errors.Is(err, ErrNotRecoverable):
			service.WriteError(w, r, http.StatusGone, hyperpraw.ErrCodeNotFound, err.Error())
		case err != nil:
			service.WriteError(w, r, http.StatusBadGateway, hyperpraw.ErrCodeUnavailable, err.Error())
		case info.Status == hyperpraw.JobFailed:
			service.WriteError(w, r, http.StatusUnprocessableEntity, hyperpraw.ErrCodeJobFailed, info.Error)
		case res == nil:
			service.WriteJSON(w, http.StatusAccepted, info) // still queued or running
		default:
			// The backend's encoding, relayed byte for byte.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			w.Write(res) //nolint:errcheck // client gone mid-write is not actionable
		}
	case "events":
		handleEvents(g, w, r, id)
	default:
		service.WriteError(w, r, http.StatusNotFound, hyperpraw.ErrCodeNotFound, "unknown resource "+sub)
	}
}

// handleEvents proxies the backend's SSE progress stream to the consumer,
// surviving backend loss mid-stream via the gateway's failover (see
// Gateway.StreamEvents).
func handleEvents(g *Gateway, w http.ResponseWriter, r *http.Request, id string) {
	after, err := service.ParseAfter(r)
	if err != nil {
		service.WriteError(w, r, http.StatusBadRequest, hyperpraw.ErrCodeInvalidRequest, err.Error())
		return
	}
	if _, ok := g.job(id); !ok {
		service.WriteError(w, r, http.StatusNotFound, hyperpraw.ErrCodeNotFound, "unknown job "+id)
		return
	}
	flusher, ok := service.BeginSSE(w, r)
	if !ok {
		return
	}
	if g.metrics != nil {
		g.metrics.sseSubscribers.Add(1)
		defer g.metrics.sseSubscribers.Add(-1)
	}
	//nolint:errcheck // a consumer gone mid-stream is not actionable
	g.StreamEvents(r.Context(), id, after, func(ev hyperpraw.ProgressEvent) error {
		if err := service.WriteSSE(w, ev); err != nil {
			return err
		}
		flusher.Flush()
		return nil
	})
}
