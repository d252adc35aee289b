package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hyperpraw"
	"hyperpraw/client"
	"hyperpraw/internal/service"
)

// tinyWire returns a partition request over a small hypergraph whose pin
// structure (and therefore fingerprint) varies with i, so tests can steer
// distinct routing keys deterministically.
func tinyWire(i int) hyperpraw.PartitionRequest {
	a := 3 + i%6                        // 3..8, never colliding with pins 1,2
	b := []int{5, 6, 7, 8, 1, 2}[i/6%6] // never colliding with pins 3,4
	return hyperpraw.PartitionRequest{
		Algorithm: "aware",
		Machine:   hyperpraw.MachineSpec{Kind: "archer", Cores: 4},
		HMetis:    fmt.Sprintf("3 8\n1 2 %d\n3 4 %d\n5 6 7 8\n", a, b),
	}
}

// fingerprintOf computes the routing key the gateway derives for a wire
// request, via the same parse path.
func fingerprintOf(t *testing.T, wire hyperpraw.PartitionRequest) string {
	t.Helper()
	req, err := service.ParseRequest(wire)
	if err != nil {
		t.Fatal(err)
	}
	return req.FingerprintKey()
}

// newBackend boots a real hpserve backend (service + HTTP handler) whose
// machine profiling can be gated shut to hold jobs mid-run.
func newBackend(t *testing.T, gate chan struct{}) *httptest.Server {
	t.Helper()
	profile := hyperpraw.Profile
	if gate != nil {
		profile = func(m *hyperpraw.Machine) hyperpraw.Environment {
			<-gate
			return hyperpraw.Profile(m)
		}
	}
	svc := service.New(service.Config{Workers: 2, ProfileFunc: profile})
	ts := httptest.NewServer(service.NewHandler(svc))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Errorf("backend shutdown: %v", err)
		}
	})
	return ts
}

func newGateway(t *testing.T, backends ...string) *Gateway {
	t.Helper()
	g := New(Config{Backends: backends, HealthInterval: -1})
	t.Cleanup(g.Close)
	return g
}

// wiresCovering picks perBackend wires routed to each of urls by scanning
// tinyWire's 36 variants against the rendezvous order. Backend URLs carry
// random httptest ports, so which backend a fixed fingerprint ranks first
// varies per run — selecting by rank makes the spread deterministic by
// construction.
func wiresCovering(t *testing.T, urls []string, perBackend int) []hyperpraw.PartitionRequest {
	t.Helper()
	need := make(map[string]int, len(urls))
	for _, u := range urls {
		need[u] = perBackend
	}
	var out []hyperpraw.PartitionRequest
	for i := 0; i < 36 && len(out) < perBackend*len(urls); i++ {
		w := tinyWire(i)
		top := RendezvousOrder(urls, fingerprintOf(t, w))[0]
		if need[top] > 0 {
			need[top]--
			out = append(out, w)
		}
	}
	if len(out) != perBackend*len(urls) {
		t.Fatalf("only %d of %d wires cover %v", len(out), perBackend*len(urls), urls)
	}
	return out
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

func TestRendezvousOrderStableUnderMembershipChange(t *testing.T) {
	members := []string{"http://a:1", "http://b:1", "http://c:1"}
	keys := make([]string, 100)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
	}

	top := func(ms []string, key string) string { return RendezvousOrder(ms, key)[0] }

	// Every member appears exactly once in every ordering.
	for _, k := range keys {
		order := RendezvousOrder(members, k)
		if len(order) != len(members) {
			t.Fatalf("order for %s has %d members", k, len(order))
		}
		seen := map[string]bool{}
		for _, m := range order {
			if seen[m] {
				t.Fatalf("order for %s repeats %s", k, m)
			}
			seen[m] = true
		}
	}

	// Removing b remaps only the keys that ranked b first, and each of
	// those moves to its previous second choice.
	without := []string{members[0], members[2]}
	moved := 0
	for _, k := range keys {
		before := RendezvousOrder(members, k)
		after := top(without, k)
		if before[0] == members[1] {
			moved++
			if after != before[1] {
				t.Fatalf("%s: after removal routed to %s, want previous runner-up %s", k, after, before[1])
			}
		} else if after != before[0] {
			t.Fatalf("%s: unaffected key remapped from %s to %s", k, before[0], after)
		}
	}
	if moved == 0 || moved == len(keys) {
		t.Fatalf("degenerate key distribution: %d/%d keys on removed member", moved, len(keys))
	}

	// Re-adding b restores the original assignment for every key.
	restored := []string{members[2], members[1], members[0]} // order must not matter
	for _, k := range keys {
		if top(restored, k) != top(members, k) {
			t.Fatalf("%s: re-adding the member did not restore its routing", k)
		}
	}
}

func TestGatewayRoutesSameFingerprintToSameBackend(t *testing.T) {
	b0, b1 := newBackend(t, nil), newBackend(t, nil)
	urls := []string{b0.URL, b1.URL}
	g := newGateway(t, urls...)
	ctx := testCtx(t)

	used := map[string]bool{}
	for i, wire := range wiresCovering(t, urls, 3) {
		want := RendezvousOrder(urls, fingerprintOf(t, wire))[0]
		first, err := g.Submit(ctx, wire)
		if err != nil {
			t.Fatal(err)
		}
		second, err := g.Submit(ctx, wire)
		if err != nil {
			t.Fatal(err)
		}
		if first.Backend != second.Backend {
			t.Fatalf("wire %d: resubmission routed to %s, first went to %s", i, second.Backend, first.Backend)
		}
		if first.Backend != want {
			t.Fatalf("wire %d: routed to %s, rendezvous ranks %s first", i, first.Backend, want)
		}
		used[first.Backend] = true
	}
	if len(used) != 2 {
		t.Fatalf("wires covering both backends all routed to one: %v", used)
	}
}

func TestGatewayBatchSplitsAcrossBackends(t *testing.T) {
	b0, b1 := newBackend(t, nil), newBackend(t, nil)
	urls := []string{b0.URL, b1.URL}
	g := newGateway(t, urls...)
	gwServer := httptest.NewServer(NewHandler(g))
	t.Cleanup(gwServer.Close)
	c := client.New(gwServer.URL, nil)
	ctx := testCtx(t)

	reqs := wiresCovering(t, urls, 3)
	bad := tinyWire(0)
	bad.Algorithm = "quantum"
	reqs = append(reqs, bad)

	resp, err := c.SubmitBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 6 || resp.Rejected != 1 {
		t.Fatalf("accepted %d rejected %d, want 6/1", resp.Accepted, resp.Rejected)
	}
	if resp.Jobs[6].Error == "" {
		t.Fatalf("invalid entry not rejected: %+v", resp.Jobs[6])
	}

	used := map[string]bool{}
	ids := map[string]bool{}
	for i, item := range resp.Jobs[:6] {
		if item.Job == nil {
			t.Fatalf("entry %d missing job handle: %s", i, item.Error)
		}
		if ids[item.Job.ID] {
			t.Fatalf("duplicate gateway job id %s", item.Job.ID)
		}
		ids[item.Job.ID] = true
		want := RendezvousOrder(urls, fingerprintOf(t, reqs[i]))[0]
		if item.Job.Backend != want {
			t.Fatalf("entry %d routed to %s, rendezvous ranks %s first", i, item.Job.Backend, want)
		}
		used[item.Job.Backend] = true
		res, err := c.Wait(ctx, item.Job.ID)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if len(res.Parts) == 0 {
			t.Fatalf("entry %d: empty result", i)
		}
	}
	if len(used) != 2 {
		t.Fatalf("batch of 6 distinct fingerprints used one backend: %v", used)
	}
}

// TestGatewayFailoverMidJob is the acceptance scenario: a backend dies
// while its job is still running, and the job completes anyway via
// failover to the surviving backend.
func TestGatewayFailoverMidJob(t *testing.T) {
	gate0, gate1 := make(chan struct{}), make(chan struct{})
	b0, b1 := newBackend(t, gate0), newBackend(t, gate1)
	// Unblock both profile gates at cleanup so backend shutdown can drain.
	gates := map[string]chan struct{}{b0.URL: gate0, b1.URL: gate1}
	released := map[string]bool{}
	release := func(url string) {
		if !released[url] {
			released[url] = true
			close(gates[url])
		}
	}
	t.Cleanup(func() {
		for url := range gates {
			release(url)
		}
	})

	g := newGateway(t, b0.URL, b1.URL)
	gwServer := httptest.NewServer(NewHandler(g))
	t.Cleanup(gwServer.Close)
	c := client.New(gwServer.URL, nil)
	ctx := testCtx(t)

	info, err := g.Submit(ctx, tinyWire(3))
	if err != nil {
		t.Fatal(err)
	}
	victim := info.Backend
	survivor := b1
	if victim == b1.URL {
		survivor = b0
	}
	// The victim's profile gate stays shut: its copy of the job is pinned
	// mid-run. The survivor is free to compute.
	release(survivor.URL)

	if victim == b0.URL {
		b0.CloseClientConnections()
		b0.Close()
	} else {
		b1.CloseClientConnections()
		b1.Close()
	}

	res, err := c.Wait(ctx, info.ID)
	if err != nil {
		t.Fatalf("job did not survive backend death: %v", err)
	}
	if len(res.Parts) != 8 {
		t.Fatalf("failover result has %d parts, want 8", len(res.Parts))
	}

	final, err := g.Job(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != hyperpraw.JobDone {
		t.Fatalf("job status %s, want done", final.Status)
	}
	if final.Backend != survivor.URL {
		t.Fatalf("job finished on %s, want survivor %s", final.Backend, survivor.URL)
	}

	health := g.Health()
	if health.Status != "ok" {
		t.Fatalf("gateway health %q with a surviving backend", health.Status)
	}
	for _, b := range health.Backends {
		if b.URL == victim && b.Healthy {
			t.Fatalf("dead backend %s still marked healthy", victim)
		}
		if b.URL == survivor.URL && !b.Healthy {
			t.Fatalf("surviving backend %s marked unhealthy", survivor.URL)
		}
	}
	// Release the victim's gate last so its worker pool can drain in
	// cleanup (the service behind the closed HTTP server is still alive).
	release(victim)
}

// TestGatewaySSEFailover drives the progress stream through the gateway
// and kills the serving backend mid-stream: the stream must resume on the
// survivor and still terminate with a done frame.
func TestGatewaySSEFailover(t *testing.T) {
	gate0, gate1 := make(chan struct{}), make(chan struct{})
	b0, b1 := newBackend(t, gate0), newBackend(t, gate1)
	gates := map[string]chan struct{}{b0.URL: gate0, b1.URL: gate1}
	released := map[string]bool{}
	release := func(url string) {
		if !released[url] {
			released[url] = true
			close(gates[url])
		}
	}
	t.Cleanup(func() {
		for url := range gates {
			release(url)
		}
	})

	g := newGateway(t, b0.URL, b1.URL)
	gwServer := httptest.NewServer(NewHandler(g))
	t.Cleanup(gwServer.Close)
	c := client.New(gwServer.URL, nil)
	ctx := testCtx(t)

	info, err := g.Submit(ctx, tinyWire(7))
	if err != nil {
		t.Fatal(err)
	}
	victim, survivor := b0, b1
	if info.Backend == b1.URL {
		victim, survivor = b1, b0
	}
	release(survivor.URL)

	// Kill the victim once the stream is attached and idle on it.
	go func() {
		time.Sleep(200 * time.Millisecond)
		victim.CloseClientConnections()
		victim.Close()
	}()

	var events []hyperpraw.ProgressEvent
	err = c.StreamProgress(ctx, info.ID, 0, func(ev hyperpraw.ProgressEvent) error {
		events = append(events, ev)
		return nil
	})
	if err != nil {
		t.Fatalf("stream did not survive backend death: %v", err)
	}
	if len(events) < 2 {
		t.Fatalf("stream delivered %d events, want iterations plus a final", len(events))
	}
	final := events[len(events)-1]
	if !final.Final || final.Status != hyperpraw.JobDone {
		t.Fatalf("final frame %+v, want done", final)
	}
	for _, ev := range events {
		if ev.JobID != info.ID {
			t.Fatalf("frame carries job id %q, want gateway id %q", ev.JobID, info.ID)
		}
	}
	release(victim.URL)
}

func TestGatewayEjectionAndReadmission(t *testing.T) {
	var down atomic.Bool
	svc := service.New(service.Config{Workers: 1})
	inner := service.NewHandler(svc)
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, `{"error":"down for maintenance"}`, http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		flaky.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		svc.Shutdown(ctx) //nolint:errcheck
	})
	steady := newBackend(t, nil)
	urls := []string{flaky.URL, steady.URL}
	g := newGateway(t, urls...)
	ctx := testCtx(t)

	// Find a wire whose rendezvous primary is the flaky backend.
	wire := hyperpraw.PartitionRequest{}
	found := false
	for i := 0; i < 36 && !found; i++ {
		wire = tinyWire(i)
		found = RendezvousOrder(urls, fingerprintOf(t, wire))[0] == flaky.URL
	}
	if !found {
		t.Fatal("no test fingerprint ranks the flaky backend first")
	}

	down.Store(true)
	g.CheckBackends(ctx)
	for _, b := range g.Backends() {
		if b.URL == flaky.URL && b.Healthy {
			t.Fatal("failing backend not ejected by the health check")
		}
	}
	info, err := g.Submit(ctx, wire)
	if err != nil {
		t.Fatal(err)
	}
	if info.Backend != steady.URL {
		t.Fatalf("job routed to ejected backend %s", info.Backend)
	}

	down.Store(false)
	g.CheckBackends(ctx)
	for _, b := range g.Backends() {
		if b.URL == flaky.URL && !b.Healthy {
			t.Fatal("recovered backend not re-admitted by the health check")
		}
	}
	info, err = g.Submit(ctx, wire)
	if err != nil {
		t.Fatal(err)
	}
	if info.Backend != flaky.URL {
		t.Fatalf("job routed to %s after re-admission, want primary %s", info.Backend, flaky.URL)
	}
}

func TestGatewayNoBackends(t *testing.T) {
	g := newGateway(t)
	if _, err := g.Submit(testCtx(t), tinyWire(0)); err == nil {
		t.Fatal("submit with no backends succeeded")
	}
}

func TestGatewayBadRequest(t *testing.T) {
	b := newBackend(t, nil)
	g := newGateway(t, b.URL)
	wire := tinyWire(0)
	wire.Algorithm = "quantum"
	_, err := g.Submit(testCtx(t), wire)
	if err == nil {
		t.Fatal("bad algorithm accepted")
	}
	// The backend must not have been ejected by a client-side error.
	for _, st := range g.Backends() {
		if !st.Healthy {
			t.Fatalf("backend %s ejected by a bad request", st.URL)
		}
	}
}

// TestGatewayRejectsOversizedRequest checks that the gateway refuses a
// machine spec past the core bound, and a parallel request past the worker
// bound, itself with 400 invalid_request, without forwarding either or
// ejecting the backend.
func TestGatewayRejectsOversizedRequest(t *testing.T) {
	b := newBackend(t, nil)
	g := newGateway(t, b.URL)
	gw := httptest.NewServer(NewHandler(g))
	t.Cleanup(gw.Close)
	cores := tinyWire(0)
	cores.Machine.Cores = 100000
	workers := tinyWire(1)
	workers.Algorithm = "aware-parallel"
	workers.Options = &hyperpraw.ServeOptions{Workers: 4000}
	for _, tc := range []struct {
		wire hyperpraw.PartitionRequest
		want string
	}{{cores, "cores"}, {workers, "workers"}} {
		payload, err := json.Marshal(tc.wire)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := gw.Client().Post(gw.URL+"/v1/partition", "application/json", strings.NewReader(string(payload)))
		if err != nil {
			t.Fatal(err)
		}
		var body hyperpraw.ErrorBody
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || body.Error.Code != hyperpraw.ErrCodeInvalidRequest ||
			!strings.Contains(body.Error.Message, tc.want) {
			t.Fatalf("status %d %+v, want 400 %s on %s", resp.StatusCode, body.Error, hyperpraw.ErrCodeInvalidRequest, tc.want)
		}
	}
	for _, st := range g.Backends() {
		if !st.Healthy {
			t.Fatalf("backend %s ejected by a bad request", st.URL)
		}
	}
}

// TestGateway404FailsOverWithoutEjecting covers the restarted-backend
// case: a backend that has forgotten a job (404) triggers a failover for
// that job but must not be ejected from routing — a job-level miss is not
// a node-level failure.
func TestGateway404FailsOverWithoutEjecting(t *testing.T) {
	var amnesia atomic.Bool
	svc := service.New(service.Config{Workers: 1})
	inner := service.NewHandler(svc)
	forgetful := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if amnesia.Load() && strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
			http.Error(w, `{"error":"unknown job"}`, http.StatusNotFound)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		forgetful.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		svc.Shutdown(ctx) //nolint:errcheck
	})
	other := newBackend(t, nil)
	urls := []string{forgetful.URL, other.URL}
	g := newGateway(t, urls...)
	ctx := testCtx(t)

	// A wire whose rendezvous primary is the forgetful backend.
	var wire hyperpraw.PartitionRequest
	found := false
	for i := 0; i < 36 && !found; i++ {
		wire = tinyWire(i)
		found = RendezvousOrder(urls, fingerprintOf(t, wire))[0] == forgetful.URL
	}
	if !found {
		t.Fatal("no test fingerprint ranks the forgetful backend first")
	}
	info, err := g.Submit(ctx, wire)
	if err != nil {
		t.Fatal(err)
	}
	if info.Backend != forgetful.URL {
		t.Fatalf("routed to %s, want %s", info.Backend, forgetful.URL)
	}

	amnesia.Store(true) // "restart": job table wiped, node still healthy
	after, err := g.Job(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.Backend != other.URL {
		t.Fatalf("forgotten job stayed on %s, want failover to %s", after.Backend, other.URL)
	}
	for _, st := range g.Backends() {
		if st.URL == forgetful.URL && !st.Healthy {
			t.Fatal("backend ejected by a job-level 404")
		}
	}
	res, err := g.waitResult(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Parts) != 8 {
		t.Fatalf("failover result has %d parts", len(res.Parts))
	}
}

// waitResult polls Gateway.Result until the job settles (test helper).
func (g *Gateway) waitResult(ctx context.Context, id string) (*hyperpraw.JobResult, error) {
	for {
		res, info, err := g.Result(ctx, id)
		if err != nil {
			return nil, err
		}
		if res != nil {
			return res, nil
		}
		if info.Status == hyperpraw.JobFailed {
			return nil, fmt.Errorf("job failed: %s", info.Error)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// TestGatewayDoneJobWithLostBackendErrs covers the settled-job case: once
// a result has been fetched (terminal, retained request dropped), losing
// the backend must surface an error on the next result poll — not an
// eternal "still pending".
func TestGatewayDoneJobWithLostBackendErrs(t *testing.T) {
	b := newBackend(t, nil)
	g := newGateway(t, b.URL)
	ctx := testCtx(t)

	info, err := g.Submit(ctx, tinyWire(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.waitResult(ctx, info.ID); err != nil {
		t.Fatal(err)
	}

	b.CloseClientConnections()
	b.Close()
	_, after, err := g.Result(ctx, info.ID)
	if err == nil {
		t.Fatal("result of a done job with a dead backend reported pending forever")
	}
	if after.Status != hyperpraw.JobDone {
		t.Fatalf("status %s, want the settled done", after.Status)
	}

	// The SSE path must likewise terminate with a final frame instead of
	// spinning on the dead backend.
	var events []hyperpraw.ProgressEvent
	if err := g.StreamEvents(ctx, info.ID, 0, func(ev hyperpraw.ProgressEvent) error {
		events = append(events, ev)
		return nil
	}); err != nil {
		t.Fatalf("stream on settled job: %v", err)
	}
	if len(events) != 1 || !events[0].Final || events[0].Status != hyperpraw.JobDone {
		t.Fatalf("settled-job stream delivered %+v, want one final done frame", events)
	}
}

// TestGatewayRetentionStripsOldWires covers the fire-and-forget case: jobs
// that never turn terminal cannot be pruned, so beyond MaxJobs their
// retained wire requests (the memory-heavy part) are stripped instead.
func TestGatewayRetentionStripsOldWires(t *testing.T) {
	b := newBackend(t, nil)
	g := New(Config{Backends: []string{b.URL}, HealthInterval: -1, MaxJobs: 2})
	t.Cleanup(g.Close)
	ctx := testCtx(t)

	var ids []string
	for i := 0; i < 4; i++ {
		info, err := g.Submit(ctx, tinyWire(i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	wireOf := func(id string) string {
		j, ok := g.job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.wire.Algorithm
	}
	if wireOf(ids[0]) != "" || wireOf(ids[1]) != "" {
		t.Fatal("over-cap jobs kept their retained requests")
	}
	if wireOf(ids[3]) == "" {
		t.Fatal("newest job lost its retained request")
	}
}

// TestGatewayRawHMetisUpload checks API parity with hpserve: the raw
// hMetis upload form (body + query parameters) must work through the
// gateway unchanged.
func TestGatewayRawHMetisUpload(t *testing.T) {
	b := newBackend(t, nil)
	g := newGateway(t, b.URL)
	gwServer := httptest.NewServer(NewHandler(g))
	t.Cleanup(gwServer.Close)
	ctx := testCtx(t)

	resp, err := http.Post(
		gwServer.URL+"/v1/partition?algorithm=oblivious&machine=cloud&cores=4",
		"text/plain", strings.NewReader(tinyWire(0).HMetis))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("raw upload status %d, want 202", resp.StatusCode)
	}
	var info hyperpraw.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Machine.Kind != "cloud" || info.Machine.Cores != 4 {
		t.Fatalf("machine %+v", info.Machine)
	}
	res, err := client.New(gwServer.URL, nil).Wait(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Parts) != 8 || res.K != 4 {
		t.Fatalf("result parts=%d k=%d", len(res.Parts), res.K)
	}
}
