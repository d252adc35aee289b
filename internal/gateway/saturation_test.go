package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hyperpraw"
	"hyperpraw/internal/telemetry"
)

// saturableBackend fakes an hpserve whose /healthz advertises a steerable
// queue occupancy and whose submit path can be switched to 429 rejections,
// while real submissions are never served (tests route around it or assert
// the rejection).
type saturableBackend struct {
	queued  atomic.Int32
	cap429  atomic.Bool // POST /v1/partition returns 429 when set
	healthz atomic.Int32
}

func newSaturableBackend(t *testing.T, queueDepth int) (*saturableBackend, *httptest.Server) {
	t.Helper()
	sb := &saturableBackend{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/healthz":
			sb.healthz.Add(1)
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck
				"status": "ok", "workers": 1,
				"queue_depth": queueDepth, "queued": int(sb.queued.Load()),
			})
		case r.URL.Path == "/v1/partition" && sb.cap429.Load():
			w.Header().Set("Retry-After", "7")
			http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
		default:
			http.Error(w, `{"error":"saturable fake serves no jobs"}`, http.StatusInternalServerError)
		}
	}))
	t.Cleanup(ts.Close)
	return sb, ts
}

// primaryWire finds a tinyWire variant whose rendezvous primary is url.
func primaryWire(t *testing.T, urls []string, url string) hyperpraw.PartitionRequest {
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

func TestGatewaySpillsOffSaturatedPrimary(t *testing.T) {
	sb, fake := newSaturableBackend(t, 10)
	real := newBackend(t, nil)
	urls := []string{fake.URL, real.URL}
	g := New(Config{
		Backends: urls, HealthInterval: -1,
		Metrics: telemetry.NewRegistry(),
	})
	t.Cleanup(g.Close)
	ctx := testCtx(t)
	wire := primaryWire(t, urls, fake.URL)

	// 9/10 queued is beyond the 0.8 default watermark: the probe marks the
	// primary saturated and routing spills to the next-ranked backend.
	sb.queued.Store(9)
	g.CheckBackends(ctx)
	for _, st := range g.Backends() {
		if st.URL == fake.URL {
			if !st.Saturated || st.Queued != 9 || !st.Healthy {
				t.Fatalf("probed primary status %+v, want healthy and saturated with queued 9", st)
			}
		}
	}
	info, err := g.Submit(ctx, wire)
	if err != nil {
		t.Fatal(err)
	}
	if info.Backend != real.URL {
		t.Fatalf("submission routed to %s, want spill target %s", info.Backend, real.URL)
	}
	if n := g.metrics.spills.Value(); n != 1 {
		t.Fatalf("hpgate_spills_total = %v, want 1", n)
	}
	if n := g.metrics.shed.Value(); n != 0 {
		t.Fatalf("hpgate_shed_total = %v, want 0 (a backend took the job)", n)
	}

	// The queue drains below the watermark: the next probe clears the
	// verdict and the primary would take new work again.
	sb.queued.Store(2)
	g.CheckBackends(ctx)
	for _, st := range g.Backends() {
		if st.URL == fake.URL && st.Saturated {
			t.Fatalf("primary still saturated after draining: %+v", st)
		}
	}
}

func TestGatewayShedsWhenAllSaturated(t *testing.T) {
	sb, fake := newSaturableBackend(t, 10)
	sb.cap429.Store(true)
	g := New(Config{
		Backends: []string{fake.URL}, HealthInterval: -1,
		Metrics: telemetry.NewRegistry(),
	})
	t.Cleanup(g.Close)
	ctx := testCtx(t)

	_, err := g.Submit(ctx, tinyWire(0))
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("submit against an all-429 fleet = %v, want ErrSaturated", err)
	}
	var se *SaturatedError
	if !errors.As(err, &se) || se.RetryAfter != 7 {
		t.Fatalf("shed verdict %v does not carry the backend's Retry-After 7", err)
	}
	if n := g.metrics.shed.Value(); n != 1 {
		t.Fatalf("hpgate_shed_total = %v, want 1", n)
	}
	// The 429 marked the backend saturated without ejecting it.
	for _, st := range g.Backends() {
		if !st.Saturated || !st.Healthy || st.Breaker != "closed" {
			t.Fatalf("backend after 429: %+v, want healthy+saturated, breaker closed", st)
		}
	}

	// Over HTTP the shed is a 429 with the propagated hint.
	h := NewHandler(g)
	r := httptest.NewRequest(http.MethodPost, "/v1/partition?algorithm=aware&machine=archer&cores=4",
		strings.NewReader(tinyWire(0).HMetis))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("HTTP shed status %d, want 429", w.Code)
	}
	if secs, err := strconv.Atoi(w.Header().Get("Retry-After")); err != nil || secs != 7 {
		t.Fatalf("Retry-After %q, want 7", w.Header().Get("Retry-After"))
	}

	// A successful probe with a drained queue clears the sticky verdict.
	sb.queued.Store(0)
	g.CheckBackends(ctx)
	for _, st := range g.Backends() {
		if st.Saturated {
			t.Fatalf("saturation still sticky after a clean probe: %+v", st)
		}
	}
}

func TestGatewayBreakerPacesProbesAndRecovers(t *testing.T) {
	var down atomic.Bool
	var probes atomic.Int32
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			http.Error(w, `{"error":"probe-only fake"}`, http.StatusInternalServerError)
			return
		}
		probes.Add(1)
		if down.Load() {
			http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{"status":"ok","workers":1}`)
	}))
	t.Cleanup(flaky.Close)

	reg := telemetry.NewRegistry()
	g := New(Config{
		Backends: []string{flaky.URL}, HealthInterval: -1,
		BreakerThreshold: 1, BreakerCooldown: 150 * time.Millisecond,
		Metrics: reg,
	})
	t.Cleanup(g.Close)
	ctx := testCtx(t)

	down.Store(true)
	g.CheckBackends(ctx)
	if st := g.Backends()[0]; st.Healthy || st.Breaker != "open" {
		t.Fatalf("backend after failed probe: %+v, want breaker open", st)
	}
	// Within the cooldown the open breaker withholds probes entirely.
	before := probes.Load()
	g.CheckBackends(ctx)
	if probes.Load() != before {
		t.Fatalf("probe sent while the breaker was cooling down (%d -> %d)", before, probes.Load())
	}

	// After the cooldown the next round is the half-open trial; it fails
	// and reopens, then the backend recovers and the following trial
	// closes the breaker.
	time.Sleep(200 * time.Millisecond)
	g.CheckBackends(ctx)
	if st := g.Backends()[0]; st.Breaker != "open" {
		t.Fatalf("failed trial left breaker %q, want open", st.Breaker)
	}
	down.Store(false)
	time.Sleep(200 * time.Millisecond)
	g.CheckBackends(ctx)
	if st := g.Backends()[0]; !st.Healthy || st.Breaker != "closed" {
		t.Fatalf("backend after recovery: %+v, want breaker closed", st)
	}

	// The transition series observed the whole trajectory.
	wantMin := map[string]float64{"open": 2, "half-open": 2, "closed": 1}
	for to, want := range wantMin {
		if n := g.metrics.breakerTransitions.WithLabelValues(flaky.URL, to).Value(); n < want {
			t.Fatalf("breaker transitions to %q = %v, want >= %v", to, n, want)
		}
	}
	if n := g.metrics.ejections.WithLabelValues(flaky.URL).Value(); n != 1 {
		t.Fatalf("ejections = %v, want exactly 1 (half-open->open is the same outage)", n)
	}
	if n := g.metrics.readmissions.WithLabelValues(flaky.URL).Value(); n != 1 {
		t.Fatalf("readmissions = %v, want 1", n)
	}

	// The new families pass the exposition linter.
	var buf strings.Builder
	if err := reg.WriteExposition(&buf); err != nil {
		t.Fatal(err)
	}
	if problems := telemetry.LintExposition(strings.NewReader(buf.String())); len(problems) != 0 {
		t.Fatalf("exposition lint: %v", problems)
	}
}

func TestGatewaySaturatedPrimaryStillLastResort(t *testing.T) {
	// A saturated backend is demoted, not fenced off: when it is the only
	// backend and it accepts (no 429), the job must still land on it.
	real := newBackend(t, nil)
	g := New(Config{Backends: []string{real.URL}, HealthInterval: -1})
	t.Cleanup(g.Close)
	ctx := testCtx(t)

	m, ok := g.members.Get(real.URL)
	if !ok {
		t.Fatal("backend missing")
	}
	m.MarkSaturated(3)
	info, err := g.Submit(ctx, tinyWire(2))
	if err != nil {
		t.Fatalf("submit with only a saturated backend = %v, want accepted", err)
	}
	if info.Backend != real.URL {
		t.Fatalf("routed to %s", info.Backend)
	}
	if err := waitDone(ctx, g, info.ID); err != nil {
		t.Fatal(err)
	}
}

// waitDone polls until id settles done.
func waitDone(ctx context.Context, g *Gateway, id string) error {
	for {
		res, info, err := g.Result(ctx, id)
		if err != nil {
			return err
		}
		if res != nil {
			return nil
		}
		if info.Status == hyperpraw.JobFailed {
			return fmt.Errorf("job failed: %s", info.Error)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}
