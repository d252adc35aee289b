package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // descending input: tail must sort
	}
	v, p, ok := tail(xs, 10)
	if !ok || v != 90 || p != 90 {
		t.Fatalf("tail(1..100) = %v p%v %v, want 90 p90 true", v, p, ok)
	}
	above := 0
	for _, x := range xs {
		if x > v {
			above++
		}
	}
	if above != 10 {
		t.Fatalf("%d samples beyond the tail value, want 10", above)
	}
	if _, _, ok := tail(xs[:10], 10); ok {
		t.Fatal("tail of 10 samples must not exist with 10 beyond")
	}
	v, p, ok = tail([]float64{3, 1, 2, 5, 4, 9, 8, 7, 6, 10, 11}, 10)
	if !ok || v != 1 || math.Abs(p-100.0/11) > 1e-12 {
		t.Fatalf("tail of 11 samples = %v p%v %v, want the minimum at p9.09", v, p, ok)
	}
}

func TestWindowedTailIgnoresOneStalledWindow(t *testing.T) {
	var xs []float64
	for w := 0; w < 5; w++ {
		for i := 0; i < 100; i++ {
			x := float64(i)
			if w == 2 {
				x += 1000 // a stall lifts one window only
			}
			xs = append(xs, x)
		}
	}
	v, p, ok := windowedTail(xs, 5, 10)
	if !ok || v != 89 || p != 90 {
		t.Fatalf("windowedTail = %v p%v %v, want 89 p90 true", v, p, ok)
	}
	if _, _, ok := windowedTail(xs[:50], 5, 10); ok {
		t.Fatal("windows of 10 samples must not yield a tail")
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
	xs := []float64{5, 1, 4, 2, 3}
	if p := percentile(xs, 40); p != 2 {
		t.Fatalf("p40 = %v, want 2", p)
	}
	if p := percentile(xs, 100); p != 5 {
		t.Fatalf("p100 = %v, want 5", p)
	}
	if xs[0] != 5 {
		t.Fatal("percentile sorted its input in place")
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{1, 4, 16}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean(1,4,16) = %v, want 4", g)
	}
	if g := geomean([]float64{2, 0}); g != 0 {
		t.Fatalf("geomean with a zero = %v, want 0", g)
	}
	if g := geomean(nil); g != 0 {
		t.Fatalf("geomean of nothing = %v, want 0", g)
	}
}

func TestOpenLoopTiming(t *testing.T) {
	due := time.Unix(100, 0)
	// Issued 30 ms late, done 50 ms after it was due: the latency counts
	// the generator's delay.
	sent := due.Add(30 * time.Millisecond)
	done := due.Add(50 * time.Millisecond)
	if d := openLoopLatency(due, done); d != 50*time.Millisecond {
		t.Fatalf("latency = %v, want 50ms from the due time", d)
	}
	if l := lateness(due, sent); l != 30*time.Millisecond {
		t.Fatalf("lateness = %v, want 30ms", l)
	}
	if l := lateness(due, due.Add(-time.Millisecond)); l != 0 {
		t.Fatalf("early send lateness = %v, want 0", l)
	}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []span{
		{Name: "job", Start: 0, End: 10, Parent: -1},
		{Name: "a", Start: 1, End: 4, Parent: 0},
		{Name: "b", Start: 3, End: 6, Parent: 0},  // overlaps a: union 1..6
		{Name: "c", Start: 9, End: 12, Parent: 0}, // clipped to the parent: 9..10
		{Name: "a", Start: 1, End: 2, Parent: 1},  // grandchild: charged to a only
	}
	self := selfTimes(spans)
	want := map[string]float64{"job": 10 - 5 - 1, "a": 3 - 1 + 1, "b": 3, "c": 3}
	for name, w := range want {
		if math.Abs(self[name]-w) > 1e-12 {
			t.Errorf("self[%s] = %v, want %v", name, self[name], w)
		}
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	if id != -1 {
		t.Fatalf("nil tracer begin = %d, want -1", id)
	}
	tr = newTracer()
	root := tr.begin("job", -1, 7)
	kid := tr.begin("call", root, 7)
	tr.end(kid)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[kid].Parent != root || tr.spans[root].End < tr.spans[kid].End {
		t.Fatalf("spans = %+v", tr.spans)
	}
}

func TestLadderSteps(t *testing.T) {
	got := ladderSteps([]float64{2, 2.5, 3, 4.5, 6})
	want := []float64{2, 0.5, 0.5, 1.5, 1.5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("ladderSteps = %v, want %v", got, want)
		}
	}
	sum := 0.0
	for _, s := range got {
		sum += s
	}
	if math.Abs(sum-6) > 1e-12 {
		t.Fatalf("steps sum to %v, want the outermost depth 6", sum)
	}
}

func TestParseProm(t *testing.T) {
	text := `# HELP hpgate_backend_requests_total Proxied calls.
# TYPE hpgate_backend_requests_total counter
hpgate_backend_requests_total{backend="http://a",op="submit",outcome="ok"} 3
hpgate_backend_requests_total{backend="http://b",op="submit",outcome="ok"} 4
hpgate_backend_requests_total{backend="http://b",op="result",outcome="ok"} 5
hpgate_upstream_seconds_sum{op="submit"} 0.25
hyperpraw_store_jobs 12
weird{msg="a,b=\"c\""} 1
`
	samples, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if v := sumSeries(samples, "hpgate_backend_requests_total", map[string]string{"op": "submit"}); v != 7 {
		t.Fatalf("submit calls = %v, want 7", v)
	}
	if v := sumSeries(samples, "hyperpraw_store_jobs", nil); v != 12 {
		t.Fatalf("store jobs = %v, want 12", v)
	}
	if v := sumSeries(samples, "weird", map[string]string{"msg": `a,b="c"`}); v != 1 {
		t.Fatalf("quoted label not parsed: %v", v)
	}
	if _, err := parseProm(strings.NewReader("broken{ 1\n")); err == nil {
		t.Fatal("want an error for a malformed series")
	}
}

func TestServeScheduleRepeatsAndCoversKeys(t *testing.T) {
	n := 2000
	a, b := serveSchedule(7, n), serveSchedule(7, n)
	repeats := 0
	seen := map[int]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave a different schedule")
		}
		if a[i].repeat {
			repeats++
		} else {
			seen[a[i].key()] = true
		}
		if p := serveCombos[a[i].combo].p; p != servePartitions[a[i].graph/servePoolPerP] {
			t.Fatalf("request %d runs a p=%d graph at p=%d", i, servePartitions[a[i].graph/servePoolPerP], p)
		}
	}
	if share := float64(repeats) / float64(n); math.Abs(share-serveRepeatShare) > 0.03 {
		t.Fatalf("repeat share %.3f, want about %.2f", share, serveRepeatShare)
	}
	if len(seen) != len(serveKeys()) {
		t.Fatalf("fresh requests covered %d of %d keys", len(seen), len(serveKeys()))
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s, the benchmark reports %s %s",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2eMetrics)
	check("per_layer", spec.PerLayer, layerMetrics)
}
