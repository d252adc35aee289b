package service

import (
	"bufio"
	"context"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hyperpraw"
	"hyperpraw/client"
	"hyperpraw/internal/telemetry"
)

// TestHypergraphResourceLifecycle walks the whole resource API: open a
// session, PUT parts out of order (with an idempotent re-PUT), watch an
// incomplete commit get refused with a resumable verdict, finish the
// upload, and confirm the committed ID is the graph's fingerprint —
// then partition by reference, and delete.
func TestHypergraphResourceLifecycle(t *testing.T) {
	ts, s := newTestServer(t, Config{Workers: 2})
	c := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	up, err := c.CreateHypergraphUpload(ctx, "tiny")
	if err != nil {
		t.Fatal(err)
	}
	if up.State != hyperpraw.HypergraphUploading || !strings.HasPrefix(up.ID, "up-") {
		t.Fatalf("session %+v", up)
	}

	// Parts land out of order; part 0 arrives last.
	doc := []byte(tinyHMetis)
	half := len(doc) / 2
	if _, err := c.PutHypergraphPart(ctx, up.ID, 1, doc[half:]); err != nil {
		t.Fatal(err)
	}

	// Committing with part 0 missing is refused but leaves the session
	// open, with the machine-readable resumable verdict.
	if _, err := c.CommitHypergraph(ctx, up.ID); err == nil {
		t.Fatal("commit with missing part succeeded")
	} else {
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusConflict || apiErr.Code != hyperpraw.ErrCodeUploadIncomplete {
			t.Fatalf("incomplete commit error %v", err)
		}
	}

	if _, err := c.PutHypergraphPart(ctx, up.ID, 0, doc[:half]); err != nil {
		t.Fatal(err)
	}
	// A re-PUT of an already-received part (a client retry) replaces it.
	if info, err := c.PutHypergraphPart(ctx, up.ID, 0, doc[:half]); err != nil {
		t.Fatal(err)
	} else if info.PartsReceived != 2 || info.UploadedBytes != int64(len(doc)) {
		t.Fatalf("after re-PUT %+v", info)
	}

	committed, err := c.CommitHypergraph(ctx, up.ID)
	if err != nil {
		t.Fatal(err)
	}
	h, err := hyperpraw.UnmarshalHMetis(strings.NewReader(tinyHMetis))
	if err != nil {
		t.Fatal(err)
	}
	if want := hyperpraw.Fingerprint(h); committed.ID != want {
		t.Fatalf("committed ID %s, want fingerprint %s", committed.ID, want)
	}
	if committed.State != hyperpraw.HypergraphCommitted || committed.Vertices != 8 || committed.Edges != 6 {
		t.Fatalf("committed %+v", committed)
	}

	// The session ID is gone; the committed resource answers on GET.
	if _, err := c.Hypergraph(ctx, up.ID); err == nil {
		t.Fatal("upload session survived its commit")
	}
	got, err := c.Hypergraph(ctx, committed.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "tiny" || !got.Resident {
		t.Fatalf("GET %+v", got)
	}

	// Partition by reference: same result as shipping the document.
	res, err := c.Partition(ctx, hyperpraw.PartitionRequest{
		Algorithm:    "aware",
		Machine:      hyperpraw.MachineSpec{Kind: "archer", Cores: 4},
		HypergraphID: committed.ID,
	})
	if err != nil {
		t.Fatal(err)
	}
	inline, err := c.Partition(ctx, hyperpraw.PartitionRequest{
		Algorithm: "aware",
		Machine:   hyperpraw.MachineSpec{Kind: "archer", Cores: 4},
		HMetis:    tinyHMetis,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Parts) != len(inline.Parts) {
		t.Fatalf("by-id parts %d != inline parts %d", len(res.Parts), len(inline.Parts))
	}
	for v := range res.Parts {
		if res.Parts[v] != inline.Parts[v] {
			t.Fatalf("by-id and inline partitions differ at vertex %d", v)
		}
	}
	// Both paths interned into the same arena: one graph known.
	if st := s.Graphs().Stats(); st.Known != 1 {
		t.Fatalf("graphs known %d, want 1", st.Known)
	}

	if err := c.DeleteHypergraph(ctx, committed.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Hypergraph(ctx, committed.ID); err == nil {
		t.Fatal("deleted hypergraph still served")
	}
}

// TestHypergraphDeleteWhileReferenced pins the arena with a job held
// mid-run and confirms DELETE is refused with the graph_referenced
// verdict until the job finishes.
func TestHypergraphDeleteWhileReferenced(t *testing.T) {
	gate := make(chan struct{})
	ts, _ := newTestServer(t, Config{
		Workers: 1,
		ProfileFunc: func(m *hyperpraw.Machine) hyperpraw.Environment {
			<-gate
			return hyperpraw.Profile(m)
		},
	})
	c := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	info, err := c.IngestHypergraph(ctx, []byte(tinyHMetis), "pinned")
	if err != nil {
		t.Fatal(err)
	}
	job, err := c.Submit(ctx, hyperpraw.PartitionRequest{
		Algorithm:    "aware",
		Machine:      hyperpraw.MachineSpec{Kind: "archer", Cores: 4},
		HypergraphID: info.ID,
	})
	if err != nil {
		t.Fatal(err)
	}

	err = c.DeleteHypergraph(ctx, info.ID)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusConflict || apiErr.Code != hyperpraw.ErrCodeGraphReferenced {
		t.Fatalf("delete while referenced: %v", err)
	}

	close(gate)
	if _, err := c.Wait(ctx, job.ID); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteHypergraph(ctx, info.ID); err != nil {
		t.Fatalf("delete after finish: %v", err)
	}
}

// TestHypergraphUnknownReference submits against an ID nobody uploaded
// and expects the envelope's machine-readable 404.
func TestHypergraphUnknownReference(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1})
	c := client.New(ts.URL, ts.Client())

	_, err := c.Submit(context.Background(), hyperpraw.PartitionRequest{
		Algorithm:    "aware",
		Machine:      hyperpraw.MachineSpec{Kind: "archer", Cores: 4},
		HypergraphID: "deadbeefdeadbeefdeadbeefdeadbeef",
	})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound || apiErr.Code != hyperpraw.ErrCodeNotFound {
		t.Fatalf("unknown reference: %v", err)
	}
}

// scrapeMetric fetches /metrics and returns the named (unlabelled)
// series value.
func scrapeMetric(t *testing.T, hc *http.Client, base, name string) float64 {
	t.Helper()
	resp, err := hc.Get(base + "/metrics")
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

// TestOneArenaManyJobs is the tentpole's acceptance check on the service
// tier: a graph uploaded once and partitioned by N concurrent jobs is
// resident exactly once, asserted through the public /metrics surface.
func TestOneArenaManyJobs(t *testing.T) {
	reg := telemetry.NewRegistry()
	ts, s := newTestServer(t, Config{Workers: 4, Metrics: reg})
	c := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	info, err := c.IngestHypergraph(ctx, []byte(tinyHMetis), "shared")
	if err != nil {
		t.Fatal(err)
	}

	const jobs = 8
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct seeds defeat the result cache so every job really
			// acquires the arena and runs the kernel.
			_, errs[i] = c.Partition(ctx, hyperpraw.PartitionRequest{
				Algorithm:    "aware",
				Machine:      hyperpraw.MachineSpec{Kind: "archer", Cores: 4, Seed: uint64(i + 1)},
				HypergraphID: info.ID,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}

	if got := scrapeMetric(t, ts.Client(), ts.URL, "hyperpraw_graph_arenas"); got != 1 {
		t.Fatalf("hyperpraw_graph_arenas %v, want 1", got)
	}
	if got := scrapeMetric(t, ts.Client(), ts.URL, "hyperpraw_graph_bytes"); got != float64(info.Bytes) {
		t.Fatalf("hyperpraw_graph_bytes %v, want %d", got, info.Bytes)
	}
	if got := scrapeMetric(t, ts.Client(), ts.URL, "hyperpraw_graph_refs"); got != 0 {
		t.Fatalf("hyperpraw_graph_refs %v after all jobs finished, want 0", got)
	}
	if st := s.Graphs().Stats(); st.Known != 1 {
		t.Fatalf("graphs known %d, want 1", st.Known)
	}
}

// TestJobsPagination pages through the job table with the cursor and
// confirms the unpaginated body keeps the legacy {"jobs":[...]} shape.
func TestJobsPagination(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 2})
	c := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	const jobs = 5
	for i := 0; i < jobs; i++ {
		if _, err := c.Partition(ctx, hyperpraw.PartitionRequest{
			Algorithm: "aware",
			Machine:   hyperpraw.MachineSpec{Kind: "archer", Cores: 4, Seed: uint64(i + 1)},
			HMetis:    tinyHMetis,
		}); err != nil {
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
	failed, err := c.ListJobs(ctx, client.JobsQuery{State: hyperpraw.JobFailed})
	if err != nil {
		t.Fatal(err)
	}
	if len(failed.Jobs) != 0 {
		t.Fatalf("state=failed jobs %d, want 0", len(failed.Jobs))
	}

	// The unpaginated listing must stay byte-compatible with the legacy
	// {"jobs":[...]} body: no cursor field when there is nothing after.
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		raw.WriteString(sc.Text())
	}
	if strings.Contains(raw.String(), "next_after") {
		t.Fatalf("unpaginated listing leaks the cursor: %s", raw.String())
	}
	if !strings.Contains(raw.String(), `"jobs"`) {
		t.Fatalf("unpaginated listing lost the legacy shape: %s", raw.String())
	}

	// Bad query parameters are rejected with the envelope, not ignored.
	for _, q := range []string{"?limit=-1", "?limit=x", "?state=bogus"} {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET /v1/jobs%s: %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestNegativeWeightsRejected: a document carrying a negative hyperedge or
// vertex weight is malformed. Inline bodies get 400 and upload commits
// 422, both invalid_request, like any other unparsable document.
func TestNegativeWeightsRejected(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1})
	c := client.New(ts.URL, ts.Client())
	ctx := context.Background()
	for _, doc := range []string{
		"2 3 1\n1 1 2\n-3 2 3\n",    // hyperedge 1
		"1 3 10\n1 2 3\n1\n-2\n4\n", // vertex 1
	} {
		_, err := c.Partition(ctx, hyperpraw.PartitionRequest{
			Algorithm: "aware",
			Machine:   hyperpraw.MachineSpec{Kind: "archer", Cores: 2},
			HMetis:    doc,
		})
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest ||
			apiErr.Code != hyperpraw.ErrCodeInvalidRequest || !strings.Contains(apiErr.Message, "negative weight") {
			t.Fatalf("inline %q: %v, want 400 %s naming the negative weight", doc, err, hyperpraw.ErrCodeInvalidRequest)
		}

		up, err := c.CreateHypergraphUpload(ctx, "negative")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.PutHypergraphPart(ctx, up.ID, 0, []byte(doc)); err != nil {
			t.Fatal(err)
		}
		_, err = c.CommitHypergraph(ctx, up.ID)
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusUnprocessableEntity ||
			apiErr.Code != hyperpraw.ErrCodeInvalidRequest || !strings.Contains(apiErr.Message, "negative weight") {
			t.Fatalf("commit %q: %v, want 422 %s naming the negative weight", doc, err, hyperpraw.ErrCodeInvalidRequest)
		}
	}
}
