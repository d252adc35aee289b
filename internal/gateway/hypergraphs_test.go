package gateway

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hyperpraw"
	"hyperpraw/client"
	"hyperpraw/internal/service"
	"hyperpraw/internal/telemetry"
)

const gwTinyHMetis = "6 8\n1 2 3\n2 4\n3 5 6\n1 7 8\n4 5\n6 7\n"

// requestLog records the requests a test backend served, so replication
// tests can assert what went over the wire.
type requestLog struct {
	mu   sync.Mutex
	reqs []loggedRequest
}

type loggedRequest struct {
	method, path string
	body         []byte
}

func (l *requestLog) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		l.mu.Lock()
		l.reqs = append(l.reqs, loggedRequest{r.Method, r.URL.Path, body})
		l.mu.Unlock()
		next.ServeHTTP(w, r)
	})
}

func (l *requestLog) snapshot() []loggedRequest {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]loggedRequest(nil), l.reqs...)
}

// newGraphBackend is newBackend plus access to the backend's service and
// a log of the requests it served, so replication tests can inspect which
// backend's graph store received the arena and how it was sent.
func newGraphBackend(t *testing.T) (*httptest.Server, *service.Service, *requestLog) {
	t.Helper()
	svc := service.New(service.Config{Workers: 2})
	seen := &requestLog{}
	ts := httptest.NewServer(seen.wrap(service.NewHandler(svc)))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Errorf("backend shutdown: %v", err)
		}
	})
	return ts, svc, seen
}

// scrapeGatewayMetric reads one unlabelled series from the gateway's
// /metrics exposition.
func scrapeGatewayMetric(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				t.Fatalf("parsing %s value %q: %v", name, fields[1], err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// TestGatewayGraphReplication uploads a graph once to the gateway and
// watches it flow: the first by-reference submission replicates the arena
// to exactly the rendezvous-chosen backend, the second reuses that copy
// (no new replication), and DELETE clears the whole fleet.
func TestGatewayGraphReplication(t *testing.T) {
	tsA, svcA, logA := newGraphBackend(t)
	tsB, svcB, logB := newGraphBackend(t)
	urls := []string{tsA.URL, tsB.URL}
	backends := map[string]*service.Service{tsA.URL: svcA, tsB.URL: svcB}

	reg := telemetry.NewRegistry()
	g := New(Config{Backends: urls, HealthInterval: -1, Metrics: reg})
	t.Cleanup(g.Close)
	gw := httptest.NewServer(NewHandler(g))
	t.Cleanup(gw.Close)
	c := client.New(gw.URL, nil)
	ctx := testCtx(t)

	// Chunked upload through the gateway's own resource surface; a tiny
	// part size forces several PUTs through the resumable path.
	info, err := c.UploadHypergraph(ctx, strings.NewReader(gwTinyHMetis), "shared", 8)
	if err != nil {
		t.Fatal(err)
	}
	if g.Graphs().Stats().Known != 1 {
		t.Fatalf("gateway graphs known %d, want 1", g.Graphs().Stats().Known)
	}
	for u, svc := range backends {
		if n := svc.Graphs().Stats().Known; n != 0 {
			t.Fatalf("backend %s holds %d graphs before any reference", u, n)
		}
	}

	res, err := c.Partition(ctx, hyperpraw.PartitionRequest{
		Algorithm:    "aware",
		Machine:      hyperpraw.MachineSpec{Kind: "archer", Cores: 4},
		HypergraphID: info.ID,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Parts) != 8 {
		t.Fatalf("parts %d, want 8", len(res.Parts))
	}

	// The arena landed on exactly the backend rendezvous ranks first for
	// this graph's fingerprint, and nowhere else.
	home := RendezvousOrder(urls, info.ID)[0]
	for u, svc := range backends {
		want := 0
		if u == home {
			want = 1
		}
		if n := svc.Graphs().Stats().Known; n != want {
			t.Fatalf("backend %s holds %d graphs, want %d", u, n, want)
		}
	}
	if n := scrapeGatewayMetric(t, gw.URL, "hpgate_graph_replications_total"); n != 1 {
		t.Fatalf("replications after first reference: %v, want 1", n)
	}
	// Replication is one POST of the arena's own bytes: no upload
	// session, no parts, no commit.
	var ingests int
	for _, r := range append(logA.snapshot(), logB.snapshot()...) {
		switch {
		case r.method == http.MethodPost && r.path == "/v1/hypergraphs":
			ingests++
			if !bytes.HasPrefix(r.body, []byte("HPGARN01")) {
				t.Fatalf("replication body starts %q, want the arena magic HPGARN01", r.body[:min(8, len(r.body))])
			}
		case strings.Contains(r.path, "/parts/") || strings.HasSuffix(r.path, "/commit"):
			t.Fatalf("replication sent %s %s, want one POST /v1/hypergraphs", r.method, r.path)
		}
	}
	if ingests != 1 {
		t.Fatalf("backends served %d POST /v1/hypergraphs, want 1", ingests)
	}

	// A second job against the same reference rides the replica already in
	// place: still one copy fleet-wide, no new replication.
	if _, err := c.Partition(ctx, hyperpraw.PartitionRequest{
		Algorithm:    "aware",
		Machine:      hyperpraw.MachineSpec{Kind: "archer", Cores: 4, Seed: 7},
		HypergraphID: info.ID,
	}); err != nil {
		t.Fatal(err)
	}
	if n := scrapeGatewayMetric(t, gw.URL, "hpgate_graph_replications_total"); n != 1 {
		t.Fatalf("replications after second reference: %v, want 1", n)
	}
	if n := backends[home].Graphs().Stats().Known; n != 1 {
		t.Fatalf("home backend holds %d graphs, want 1", n)
	}

	// DELETE through the gateway fans out: gateway and every backend end
	// up empty, and the reference is gone for future submissions.
	if err := c.DeleteHypergraph(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	if n := g.Graphs().Stats().Known; n != 0 {
		t.Fatalf("gateway still knows %d graphs after delete", n)
	}
	for u, svc := range backends {
		if n := svc.Graphs().Stats().Known; n != 0 {
			t.Fatalf("backend %s still knows %d graphs after delete", u, n)
		}
	}
}

// TestGatewayUnknownGraphReference asserts a reference nobody uploaded is
// refused with the envelope's 404, not routed into the fleet.
func TestGatewayUnknownGraphReference(t *testing.T) {
	ts := newBackend(t, nil)
	g := newGateway(t, ts.URL)
	gw := httptest.NewServer(NewHandler(g))
	t.Cleanup(gw.Close)

	_, err := client.New(gw.URL, nil).Submit(testCtx(t), hyperpraw.PartitionRequest{
		Algorithm:    "aware",
		Machine:      hyperpraw.MachineSpec{Kind: "archer", Cores: 4},
		HypergraphID: "deadbeefdeadbeefdeadbeefdeadbeef",
	})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound || apiErr.Code != hyperpraw.ErrCodeNotFound {
		t.Fatalf("unknown reference: %v", err)
	}
}

// TestGatewayJobsPagination pages the gateway job table through the same
// cursor contract the backend tier serves.
func TestGatewayJobsPagination(t *testing.T) {
	ts := newBackend(t, nil)
	g := newGateway(t, ts.URL)
	gw := httptest.NewServer(NewHandler(g))
	t.Cleanup(gw.Close)
	c := client.New(gw.URL, nil)
	ctx := testCtx(t)

	const jobs = 5
	for i := 0; i < jobs; i++ {
		if _, err := c.Partition(ctx, tinyWire(i)); err != nil {
			t.Fatal(err)
		}
	}

	var seen []string
	after := ""
	for pages := 0; ; pages++ {
		if pages > jobs {
			t.Fatal("pagination did not terminate")
		}
		page, err := c.ListJobs(ctx, client.JobsQuery{Limit: 2, After: after})
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range page.Jobs {
			seen = append(seen, j.ID)
		}
		if page.NextAfter == "" {
			break
		}
		after = page.NextAfter
	}
	if len(seen) != jobs {
		t.Fatalf("paged %d jobs, want %d: %v", len(seen), jobs, seen)
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Fatalf("page order broken at %d: %v", i, seen)
		}
	}

	done, err := c.ListJobs(ctx, client.JobsQuery{State: hyperpraw.JobDone})
	if err != nil {
		t.Fatal(err)
	}
	if len(done.Jobs) != jobs {
		t.Fatalf("state=done jobs %d, want %d", len(done.Jobs), jobs)
	}
}
