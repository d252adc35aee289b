package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hyperpraw"
	"hyperpraw/client"
)

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Service) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(NewHandler(s))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return ts, s
}

func TestHTTPHealthAndAlgorithms(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1})
	c := client.New(ts.URL, ts.Client())

	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers != 1 {
		t.Fatalf("health %+v", h)
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/algorithms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var algos struct {
		Algorithms []string `json:"algorithms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&algos); err != nil {
		t.Fatal(err)
	}
	if len(algos.Algorithms) != 5 {
		t.Fatalf("algorithms %v", algos.Algorithms)
	}
}

func TestHTTPErrorPaths(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1})
	hc := ts.Client()

	post := func(path, contentType, body string) *http.Response {
		t.Helper()
		resp, err := hc.Post(ts.URL+path, contentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post("/v1/partition", "application/json", "{not json"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json: %d", resp.StatusCode)
	}
	if resp := post("/v1/partition", "application/json",
		`{"algorithm":"quantum","machine":{"kind":"archer","cores":4},"hmetis":"1 2\n1 2\n"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad algorithm: %d", resp.StatusCode)
	}
	if resp := post("/v1/partition", "application/json",
		`{"algorithm":"aware","machine":{"kind":"archer","cores":4},"hmetis":"1 2\n1 2\n","unknown_field":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %d", resp.StatusCode)
	}

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := hc.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := get("/v1/jobs/job-000099"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", resp.StatusCode)
	}
	if resp := get("/v1/jobs/job-000099/result"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown result: %d", resp.StatusCode)
	}
	if resp := get("/v1/partition"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET partition: %d", resp.StatusCode)
	}
}

// TestHTTPRejectsOversizedRequest checks the wire bounds on machine cores
// and parallel workers: a request past either limit is refused with 400
// invalid_request at parse time, through both the JSON body and the
// raw-upload query parameters, before anything sized by it is allocated.
func TestHTTPRejectsOversizedRequest(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1})
	for _, tc := range []struct{ path, contentType, body, want string }{
		{"/v1/partition", "application/json",
			`{"algorithm":"aware","machine":{"kind":"archer","cores":100000},"hmetis":"1 2\n1 2\n"}`, "cores"},
		{"/v1/partition?algorithm=aware&machine=cloud&cores=1025", "text/plain", "1 2\n1 2\n", "cores"},
		{"/v1/partition", "application/json",
			`{"algorithm":"aware-parallel","machine":{"kind":"archer","cores":8},"options":{"workers":4000},"hmetis":"1 2\n1 2\n"}`, "workers"},
	} {
		resp, err := ts.Client().Post(ts.URL+tc.path, tc.contentType, strings.NewReader(tc.body))
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
			t.Fatalf("%s: status %d %+v, want 400 %s on %s", tc.path, resp.StatusCode, body.Error, hyperpraw.ErrCodeInvalidRequest, tc.want)
		}
	}
}

func TestHTTPRawHMetisUpload(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 2})
	c := client.New(ts.URL, ts.Client())

	resp, err := ts.Client().Post(
		ts.URL+"/v1/partition?algorithm=oblivious&machine=cloud&cores=4&seed=2&imbalance=1.2",
		"text/plain", bytes.NewReader([]byte(tinyHMetis)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var info hyperpraw.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Machine.Kind != "cloud" || info.Machine.Cores != 4 || info.Machine.Seed != 2 {
		t.Fatalf("machine %+v", info.Machine)
	}
	res, err := c.Wait(context.Background(), info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Parts) != 8 || res.K != 4 {
		t.Fatalf("result parts=%d k=%d", len(res.Parts), res.K)
	}
}

func TestHTTPFailedJobResult(t *testing.T) {
	// An empty Environment (no cost matrices) makes the partitioner reject
	// the run, driving the job to the failed state after submission
	// validation has already passed.
	ts, s := newTestServer(t, Config{
		Workers:     1,
		ProfileFunc: func(m *hyperpraw.Machine) hyperpraw.Environment { return hyperpraw.Environment{} },
	})
	info, err := s.Submit(tinyRequest(t, "aware", hyperpraw.MachineSpec{Kind: "archer", Cores: 4}))
	if err != nil {
		t.Fatal(err)
	}
	_, done, err := s.Wait(context.Background(), info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != hyperpraw.JobFailed || done.Error == "" {
		t.Fatalf("status %s error %q, want failed", done.Status, done.Error)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + info.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("failed job result status %d, want 422", resp.StatusCode)
	}
	c := client.New(ts.URL, ts.Client())
	if _, err := c.Result(context.Background(), info.ID); err == nil {
		t.Fatal("client accepted failed job result")
	}
}

// TestHTTPServeConcurrentEndToEnd is the acceptance test of the serving
// subsystem: at least 8 simultaneous HTTP requests spanning more than three
// algorithm/machine combinations all complete; the profiled environment is
// computed exactly once per machine spec; and each job's result matches a
// direct facade call on the same inputs.
func TestHTTPServeConcurrentEndToEnd(t *testing.T) {
	var profiles atomic.Int32
	profiled := make(map[string]bool)
	var profMu sync.Mutex
	ts, _ := newTestServer(t, Config{
		Workers: 4,
		ProfileFunc: func(m *hyperpraw.Machine) hyperpraw.Environment {
			profiles.Add(1)
			profMu.Lock()
			profiled[fmt.Sprintf("%dc", m.NumCores())] = true
			profMu.Unlock()
			return hyperpraw.Profile(m)
		},
	})
	c := client.New(ts.URL, ts.Client())
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	h, err := hyperpraw.UnmarshalHMetis(strings.NewReader(tinyHMetis))
	if err != nil {
		t.Fatal(err)
	}
	text, err := hyperpraw.MarshalHMetis(h)
	if err != nil {
		t.Fatal(err)
	}

	// Four deterministic algorithm/machine combinations, submitted twice
	// each: 8 simultaneous requests, 2 distinct machine specs.
	combos := []struct {
		algorithm string
		machine   hyperpraw.MachineSpec
	}{
		{"aware", hyperpraw.MachineSpec{Kind: "archer", Cores: 4, Seed: 1}},
		{"oblivious", hyperpraw.MachineSpec{Kind: "archer", Cores: 4, Seed: 1}},
		{"multilevel", hyperpraw.MachineSpec{Kind: "cloud", Cores: 6, Seed: 1}},
		{"aware+mapping", hyperpraw.MachineSpec{Kind: "cloud", Cores: 6, Seed: 1}},
	}
	const repeats = 2
	type outcome struct {
		combo int
		res   *hyperpraw.JobResult
		err   error
	}
	outcomes := make(chan outcome, len(combos)*repeats)
	var wg sync.WaitGroup
	for rep := 0; rep < repeats; rep++ {
		for i, combo := range combos {
			wg.Add(1)
			go func(i int, algorithm string, machine hyperpraw.MachineSpec) {
				defer wg.Done()
				res, err := c.Partition(ctx, hyperpraw.PartitionRequest{
					Algorithm: algorithm,
					Machine:   machine,
					HMetis:    text,
				})
				outcomes <- outcome{combo: i, res: res, err: err}
			}(i, combo.algorithm, combo.machine)
		}
	}
	wg.Wait()
	close(outcomes)

	byCombo := make(map[int][]*hyperpraw.JobResult)
	for o := range outcomes {
		if o.err != nil {
			t.Fatalf("combo %d: %v", o.combo, o.err)
		}
		byCombo[o.combo] = append(byCombo[o.combo], o.res)
	}
	if len(byCombo) != len(combos) {
		t.Fatalf("only %d combos completed", len(byCombo))
	}

	// Profiling ran exactly once per distinct machine spec.
	if n := profiles.Load(); n != 2 {
		t.Fatalf("profiled %d times, want 2 (specs seen: %v)", n, profiled)
	}

	// Every job's result matches a direct facade call on the same inputs.
	for i, combo := range combos {
		machine, err := combo.machine.Build()
		if err != nil {
			t.Fatal(err)
		}
		env := hyperpraw.Profile(machine)
		var parts []int32
		switch combo.algorithm {
		case "aware":
			parts, _, err = hyperpraw.PartitionAware(h, env, nil)
		case "oblivious":
			parts, _, err = hyperpraw.PartitionBasic(h, env, nil)
		case "multilevel":
			parts, err = hyperpraw.PartitionMultilevel(h, machine.NumCores(), nil)
		case "aware+mapping":
			parts, _, err = hyperpraw.PartitionAware(h, env, nil)
			if err == nil {
				parts, err = hyperpraw.MapToTopology(h, parts, machine, env)
			}
		}
		if err != nil {
			t.Fatalf("facade %s: %v", combo.algorithm, err)
		}
		want := hyperpraw.Evaluate(h, parts, env)
		for _, res := range byCombo[i] {
			got := res.Report
			if got.HyperedgeCut != want.HyperedgeCut || got.SOED != want.SOED ||
				got.LambdaMinusOne != want.LambdaMinusOne ||
				got.CommCost != want.CommCost || got.Imbalance != want.Imbalance {
				t.Fatalf("%s on %s: served report %+v != facade report %+v",
					combo.algorithm, combo.machine.Key(), got, want)
			}
			if len(res.Parts) != len(parts) {
				t.Fatalf("%s: parts length %d != %d", combo.algorithm, len(res.Parts), len(parts))
			}
			for v := range parts {
				if res.Parts[v] != parts[v] {
					t.Fatalf("%s: partition differs at vertex %d", combo.algorithm, v)
				}
			}
		}
	}

	// The repeat submissions hit the result cache.
	health, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if health.ResultCache.Hits < uint64(len(combos)) {
		t.Fatalf("result cache hits %d, want >= %d", health.ResultCache.Hits, len(combos))
	}
	if health.Jobs != len(combos)*repeats {
		t.Fatalf("jobs %d, want %d", health.Jobs, len(combos)*repeats)
	}
}
