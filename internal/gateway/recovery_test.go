package gateway

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hyperpraw"
	"hyperpraw/client"
	"hyperpraw/internal/service"
	"hyperpraw/internal/store"
)

// wireRoutedTo scans tinyWire's variants for one whose rendezvous primary
// is url.
func wireRoutedTo(t *testing.T, urls []string, url string) hyperpraw.PartitionRequest {
	t.Helper()
	for i := 0; i < 36; i++ {
		w := tinyWire(i)
		if RendezvousOrder(urls, fingerprintOf(t, w))[0] == url {
			return w
		}
	}
	t.Fatalf("no test fingerprint ranks %s first", url)
	return hyperpraw.PartitionRequest{}
}

// TestGatewayDurableBackendRecoversAfterRestart is the acceptance
// scenario: a backend running with a durable store dies after finishing a
// job; while it is down the gateway keeps the job pending on it (no
// failover resubmission), and once it restarts over the same store the
// original result is served verbatim.
func TestGatewayDurableBackendRecoversAfterRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := testCtx(t)

	var down atomic.Bool
	var inner atomic.Value // http.Handler of the current service incarnation
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc1 := service.New(service.Config{Workers: 1, Store: st1})
	inner.Store(service.NewHandler(svc1))
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, `{"error":"backend restarting"}`, http.StatusServiceUnavailable)
			return
		}
		inner.Load().(http.Handler).ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	other := newBackend(t, nil)
	urls := []string{ts.URL, other.URL}
	g := New(Config{Backends: urls, HealthInterval: -1, RecoveryWindow: time.Minute})
	t.Cleanup(g.Close)

	// A health probe teaches the gateway which backends are durable.
	g.CheckBackends(ctx)
	for _, b := range g.Backends() {
		if b.URL == ts.URL && !b.Durable {
			t.Fatal("backend with a store not reported durable")
		}
		if b.URL == other.URL && b.Durable {
			t.Fatal("storeless backend reported durable")
		}
	}

	info, err := g.Submit(ctx, wireRoutedTo(t, urls, ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	res1, err := g.waitResult(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Outage begins. Every poll must stay pending on the durable backend
	// instead of failing over or erroring.
	down.Store(true)
	g.CheckBackends(ctx)
	res, mid, err := g.decodedResult(ctx, info.ID)
	if err != nil || res != nil {
		t.Fatalf("poll during outage: res=%v err=%v, want pending", res, err)
	}
	if mid.Backend != ts.URL {
		t.Fatalf("job moved to %s during the outage, want it held on %s", mid.Backend, ts.URL)
	}
	midInfo, err := g.Job(ctx, info.ID)
	if err != nil || midInfo.Backend != ts.URL {
		t.Fatalf("status during outage: %+v err=%v", midInfo, err)
	}

	// A stream started during the outage must wait out the restart too.
	type streamResult struct {
		events []hyperpraw.ProgressEvent
		err    error
	}
	resc := make(chan streamResult, 1)
	go func() {
		var events []hyperpraw.ProgressEvent
		err := g.StreamEvents(ctx, info.ID, 0, func(ev hyperpraw.ProgressEvent) error {
			events = append(events, ev)
			return nil
		})
		resc <- streamResult{events, err}
	}()

	// "Restart": a fresh service incarnation over the same store.
	if err := svc1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := service.New(service.Config{Workers: 1, Store: st2})
	t.Cleanup(func() {
		svc2.Shutdown(context.Background()) //nolint:errcheck
		st2.Close()                         //nolint:errcheck
	})
	inner.Store(service.NewHandler(svc2))
	down.Store(false)
	g.CheckBackends(ctx)

	res2, err := g.waitResult(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	// The stored result, not a recomputation: the original run's wall time
	// comes back byte-for-byte.
	if res2.ElapsedMS != res1.ElapsedMS {
		t.Fatalf("recovered ElapsedMS %g != original %g (failover recomputed?)", res2.ElapsedMS, res1.ElapsedMS)
	}
	after, err := g.Job(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.Backend != ts.URL || after.Status != hyperpraw.JobDone {
		t.Fatalf("after restart: %+v, want done on %s", after, ts.URL)
	}

	select {
	case sr := <-resc:
		if sr.err != nil {
			t.Fatalf("stream across the restart: %v", sr.err)
		}
		final := sr.events[len(sr.events)-1]
		if !final.Final || final.Status != hyperpraw.JobDone {
			t.Fatalf("stream final frame %+v, want done", final)
		}
	case <-time.After(time.Minute):
		t.Fatal("stream never completed after the restart")
	}
}

// TestGatewaySSERecoveryAfterRestartRerun: a durable backend dies after
// streaming part of a job's progress and comes back with a re-run log
// that is shorter than what the subscriber already saw. The proxy must
// restart its per-backend cursor on recovery — resuming at the old
// sequence number would skip the re-run's frames, drop the final frame,
// and trigger the failover recomputation recovery exists to avoid.
func TestGatewaySSERecoveryAfterRestartRerun(t *testing.T) {
	const (
		phaseFirstRun = iota
		phaseDown
		phaseRestarted
	)
	var phase atomic.Int32
	writeEvents := func(w http.ResponseWriter, after, n int, final bool) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		for i := 1; i <= n; i++ {
			if i <= after {
				continue
			}
			service.WriteSSE(w, hyperpraw.ProgressEvent{ //nolint:errcheck
				JobID:          "b-000001",
				Seq:            i,
				IterationPoint: hyperpraw.IterationPoint{Iteration: i},
			})
		}
		if final && n+1 > after {
			service.WriteSSE(w, hyperpraw.ProgressEvent{ //nolint:errcheck
				JobID: "b-000001", Seq: n + 1, Final: true, Status: hyperpraw.JobDone,
			})
		}
		w.(http.Flusher).Flush()
	}
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if phase.Load() == phaseDown {
			http.Error(w, `{"error":"restarting"}`, http.StatusServiceUnavailable)
			return
		}
		switch {
		case r.URL.Path == "/healthz":
			service.WriteJSON(w, http.StatusOK, hyperpraw.ServeHealth{Status: "ok", Durable: true})
		case r.URL.Path == "/v1/partition":
			service.WriteJSON(w, http.StatusAccepted, hyperpraw.JobInfo{ID: "b-000001", Status: hyperpraw.JobQueued})
		case strings.HasSuffix(r.URL.Path, "/events"):
			after, _ := service.ParseAfter(r)
			if phase.Load() == phaseFirstRun {
				// First incarnation: six iteration frames, then the
				// process dies mid-stream (clean EOF, no final frame).
				writeEvents(w, after, 6, false)
				phase.Store(phaseDown)
				return
			}
			// Restarted incarnation: the re-queued job re-ran with fewer
			// frames; its fresh log numbers from 1 and seals at seq 5.
			writeEvents(w, after, 4, true)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(backend.Close)

	g := New(Config{Backends: []string{backend.URL}, HealthInterval: -1, RecoveryWindow: time.Minute})
	t.Cleanup(g.Close)
	ctx := testCtx(t)
	g.CheckBackends(ctx) // learn the durable flag
	info, err := g.Submit(ctx, tinyWire(0))
	if err != nil {
		t.Fatal(err)
	}

	go func() {
		time.Sleep(600 * time.Millisecond)
		phase.Store(phaseRestarted)
	}()
	var events []hyperpraw.ProgressEvent
	if err := g.StreamEvents(ctx, info.ID, 0, func(ev hyperpraw.ProgressEvent) error {
		events = append(events, ev)
		return nil
	}); err != nil {
		t.Fatalf("stream across the restart re-run: %v", err)
	}
	final := events[len(events)-1]
	if !final.Final || final.Status != hyperpraw.JobDone {
		t.Fatalf("final frame %+v, want done (failed over instead of recovering?)", final)
	}
	seen := map[int]bool{}
	for _, ev := range events[:len(events)-1] {
		if seen[ev.Iteration] {
			t.Fatalf("iteration %d delivered twice", ev.Iteration)
		}
		seen[ev.Iteration] = true
	}
	if len(events) != 7 { // iterations 1..6 once each, plus the final
		t.Fatalf("delivered %d frames, want 6 iterations + final: %+v", len(events), events)
	}
}

// TestGatewayRecoveryWindowExpiryFailsOver: a durable backend that stays
// down past the recovery window is treated like any other loss — its
// in-flight job fails over and completes elsewhere.
func TestGatewayRecoveryWindowExpiryFailsOver(t *testing.T) {
	dir := t.TempDir()
	ctx := testCtx(t)

	gate := make(chan struct{})
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{
		Workers: 1,
		Store:   st,
		ProfileFunc: func(m *hyperpraw.Machine) hyperpraw.Environment {
			<-gate
			return hyperpraw.Profile(m)
		},
	})
	t.Cleanup(func() {
		close(gate)
		svc.Shutdown(context.Background()) //nolint:errcheck
		st.Close()                         //nolint:errcheck
	})
	var down atomic.Bool
	handler := service.NewHandler(svc)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, `{"error":"gone for good"}`, http.StatusServiceUnavailable)
			return
		}
		handler.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	other := newBackend(t, nil)
	urls := []string{ts.URL, other.URL}
	g := New(Config{Backends: urls, HealthInterval: -1, RecoveryWindow: 30 * time.Millisecond})
	t.Cleanup(g.Close)
	g.CheckBackends(ctx)

	info, err := g.Submit(ctx, wireRoutedTo(t, urls, ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	down.Store(true) // the durable backend dies mid-job and never returns

	res, err := g.waitResult(ctx, info.ID)
	if err != nil {
		t.Fatalf("job did not fail over after the recovery window: %v", err)
	}
	if len(res.Parts) != 8 {
		t.Fatalf("failover result has %d parts", len(res.Parts))
	}
	after, err := g.Job(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.Backend != other.URL {
		t.Fatalf("job finished on %s, want failover target %s", after.Backend, other.URL)
	}
}

// TestGatewayStrippedJobFailsActionably covers the silent-loss fix: a
// still-running job whose retained request was stripped by the retention
// cap loses its backend — the verdict must be an actionable 410 telling
// the caller to resubmit, flagged on the job info, not a generic failure.
func TestGatewayStrippedJobFailsActionably(t *testing.T) {
	gate := make(chan struct{})
	b := newBackend(t, gate) // profiling gated shut: jobs never turn terminal
	g := New(Config{Backends: []string{b.URL}, HealthInterval: -1, MaxJobs: 2})
	t.Cleanup(g.Close)
	t.Cleanup(func() { close(gate) })
	gwServer := httptest.NewServer(NewHandler(g))
	t.Cleanup(gwServer.Close)
	c := client.New(gwServer.URL, nil)
	ctx := testCtx(t)

	var ids []string
	for i := 0; i < 4; i++ {
		info, err := g.Submit(ctx, tinyWire(i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	jobs := g.Jobs()
	if !jobs[0].Stripped || !jobs[1].Stripped {
		t.Fatalf("over-cap jobs not flagged stripped: %+v", jobs[:2])
	}
	if jobs[3].Stripped {
		t.Fatalf("newest job flagged stripped: %+v", jobs[3])
	}

	// The backend dies; the stripped job cannot fail over.
	b.CloseClientConnections()
	b.Close()

	_, err := c.Result(ctx, ids[0])
	if err == nil {
		t.Fatal("stripped job with a dead backend reported no error")
	}
	if !client.NotRecoverable(err) {
		t.Fatalf("stripped-job error %v, want the 410 not-recoverable verdict", err)
	}
	if !strings.Contains(err.Error(), "resubmit") {
		t.Fatalf("error %q does not tell the caller to resubmit", err)
	}
	// The verdict is sticky: a client polling after the job settled must
	// get the same 410, not an indistinguishable generic 422 failure.
	if _, err := c.Result(ctx, ids[0]); !client.NotRecoverable(err) {
		t.Fatalf("second poll returned %v, want the sticky 410 verdict", err)
	}

	if _, _, err := g.decodedResult(ctx, ids[1]); !errors.Is(err, ErrNotRecoverable) {
		t.Fatalf("direct poll error %v, want ErrNotRecoverable", err)
	}

	// The verdict settles the job: flagged, failed, queryable.
	settled, err := g.Job(ctx, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if settled.Status != hyperpraw.JobFailed || !settled.Stripped {
		t.Fatalf("settled job %+v, want failed and stripped", settled)
	}
}
