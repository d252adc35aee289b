package gateway

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"hyperpraw"
	"hyperpraw/client"
	"hyperpraw/internal/graphstore"
	"hyperpraw/internal/service"
)

// This file is the gateway half of the hypergraph resource API: clients
// upload a graph once to the gateway (the same POST /v1/hypergraphs
// surface hpserve exposes, mounted over the gateway's own arena store),
// and the gateway lazily replicates it to whichever backend the
// rendezvous ranking routes the first referencing job to. Replication
// streams the arena's serialised bytes (Arena.Raw) through the backend's
// chunked upload API — the backend's store recognises the arena framing
// and interns it without reparsing — and is idempotent by construction:
// the resource ID is the graph's fingerprint, so a duplicate replication
// dedups into the backend's existing arena.

// Graphs exposes the gateway's own hypergraph store (always non-nil
// after New); cmd/hpgate and tests reach the arenas through it.
func (g *Gateway) Graphs() *graphstore.Store { return g.graphs }

// submitWithGraph submits wire to the backend at url, first making sure it
// holds the referenced hypergraph (a no-op for inline requests). When the
// backend still answers 404 — it evicted the graph between the ensure and
// the submit — the graph is replicated once more and the submit retried.
func (g *Gateway) submitWithGraph(ctx context.Context, url string, wire hyperpraw.PartitionRequest) (hyperpraw.JobInfo, error) {
	id := wire.HypergraphID
	if id != "" {
		if err := g.ensureGraph(ctx, url, id); err != nil {
			return hyperpraw.JobInfo{}, err
		}
	}
	info, err := g.submitTo(ctx, url, wire)
	if err != nil && id != "" && graphMissing(err) {
		switch rerr := g.replicateOnce(ctx, url, id); {
		case rerr == nil:
			info, err = g.submitTo(ctx, url, wire)
		case errors.Is(rerr, ErrUnknownGraph):
			// The backend lost the graph and the gateway holds no copy
			// to restore it from: surface the actionable verdict.
			err = rerr
		}
	}
	return info, err
}

// ensureGraph makes sure the backend at url holds committed hypergraph id
// before a job referencing it lands there: a GET probe first (the steady
// state — the backend already has it, from an earlier job or a direct
// upload), then a replication upload of the gateway's arena.
func (g *Gateway) ensureGraph(ctx context.Context, url, id string) error {
	probeCtx, cancel := context.WithTimeout(ctx, g.cfg.ProxyTimeout)
	start := time.Now()
	info, err := g.clientFor(url).Hypergraph(probeCtx, id)
	cancel()
	g.metrics.backendRequest(url, "graph_probe", err, time.Since(start))
	if err == nil && info.State == hyperpraw.HypergraphCommitted {
		return nil
	}
	if err != nil && !graphMissing(err) {
		return err // backend trouble, not absence: the caller's error
	}
	return g.replicateOnce(ctx, url, id)
}

// replication is one in-flight transfer of a graph to a backend; late
// callers wait on done instead of starting their own.
type replication struct {
	done chan struct{}
	err  error
}

// replicateOnce collapses concurrent replications of the same graph to
// the same backend into a single transfer: the first caller streams the
// arena, everyone else waits for its verdict. Without this, N jobs
// referencing a freshly uploaded graph would race N full-arena uploads
// at the same backend (all dedup'd on arrival — correct, but N-1
// transfers wasted). A failed flight is forgotten before its waiters
// wake, so a waiter retries the transfer itself rather than inheriting
// a verdict its own context never caused.
func (g *Gateway) replicateOnce(ctx context.Context, url, id string) error {
	key := url + "\x00" + id
	for {
		g.replMu.Lock()
		if f, ok := g.repl[key]; ok {
			g.replMu.Unlock()
			select {
			case <-f.done:
				if f.err == nil {
					return nil
				}
				continue // the flight failed; try a fresh one
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		f := &replication{done: make(chan struct{})}
		g.repl[key] = f
		g.replMu.Unlock()

		f.err = g.replicateGraph(ctx, url, id)
		g.replMu.Lock()
		delete(g.repl, key)
		g.replMu.Unlock()
		close(f.done)
		return f.err
	}
}

// replicateGraph streams the gateway's arena for id to the backend at url
// as a chunked upload and verifies the backend committed the same
// fingerprint. The arena stays pinned (referenced) for the duration so
// the gateway's own LRU cannot evict it mid-transfer. The upload runs
// under the caller's context, not the proxy deadline: a multi-gigabyte
// arena legitimately takes longer than one proxied status call.
func (g *Gateway) replicateGraph(ctx context.Context, url, id string) error {
	a, release, err := g.graphs.Acquire(id)
	if err != nil {
		return fmt.Errorf("%w: %s (upload it to the gateway first)", ErrUnknownGraph, id)
	}
	defer release()
	start := time.Now()
	info, err := g.clientFor(url).UploadHypergraph(ctx, bytes.NewReader(a.Raw()), a.Name(), 0)
	g.metrics.backendRequest(url, "replicate", err, time.Since(start))
	if err != nil {
		return fmt.Errorf("gateway: replicating %s to %s: %w", id, url, err)
	}
	if info.ID != id {
		return fmt.Errorf("gateway: replicating %s to %s: backend committed fingerprint %s", id, url, info.ID)
	}
	g.metrics.graphReplications.Inc()
	return nil
}

// graphMissing matches a backend's 404 verdict — on a resource GET or on
// a submit whose hypergraph_id the backend does not hold.
func graphMissing(err error) bool {
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusNotFound
}

// DeleteGraph removes hypergraph id everywhere: from every backend
// first, concurrently, then from the gateway's own store. Any backend
// refusing because jobs still reference the graph aborts the whole
// delete (ErrReferenced, HTTP 409); an unreachable backend aborts it
// too (service.ErrUpstream, HTTP 502) so a retry can still find the
// gateway's copy intact. A backend that never held the graph answers
// 404 and is simply not counted.
func (g *Gateway) DeleteGraph(ctx context.Context, id string) error {
	members := g.members.Snapshot().Members

	_, localKnown := g.graphs.Get(id)
	found := localKnown
	errs := make([]error, len(members))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			callCtx, cancel := context.WithTimeout(ctx, g.cfg.ProxyTimeout)
			defer cancel()
			start := time.Now()
			err := g.clientFor(url).DeleteHypergraph(callCtx, id)
			g.metrics.backendRequest(url, "graph_delete", err, time.Since(start))
			var apiErr *client.APIError
			switch {
			case err == nil:
				mu.Lock()
				found = true
				mu.Unlock()
			case errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusNotFound:
				// The backend never held it; nothing to do.
			case errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusConflict:
				errs[i] = fmt.Errorf("%w: %s on %s: %v", graphstore.ErrReferenced, id, url, apiErr.Message)
			default:
				errs[i] = fmt.Errorf("%w: deleting %s on %s: %v", service.ErrUpstream, id, url, err)
			}
		}(i, m.URL)
	}
	wg.Wait()

	var upstream error
	for _, err := range errs {
		if errors.Is(err, graphstore.ErrReferenced) {
			return err // still in use somewhere: nothing was harmed locally
		}
		if err != nil && upstream == nil {
			upstream = err
		}
	}
	if upstream != nil {
		return upstream
	}
	switch err := g.graphs.Delete(id); {
	case err == nil:
		return nil
	case errors.Is(err, graphstore.ErrNotFound) && found:
		return nil // only backends held it; they no longer do
	default:
		return err
	}
}
