package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func bl(name string, ns float64) benchLine { return benchLine{Name: name, NsPerOp: ns} }

func TestFoldSpeedupsPairsAndSweeps(t *testing.T) {
	rep := report{
		Speedups: map[string]float64{},
		Benchmarks: []benchLine{
			bl("BenchmarkStream/exhaustive/p=256", 800),
			bl("BenchmarkStream/fast/p=256", 200),
			bl("BenchmarkParallelAwareHier2/w=1/p=256", 600),
			bl("BenchmarkParallelAwareHier2/w=2/p=256", 320),
			bl("BenchmarkParallelAwareHier2/w=4/p=256", 170),
			// A sweep with no w=1 baseline must contribute nothing.
			bl("BenchmarkParallelUniform/w=4/p=256", 100),
			// Non-sweep shapes are ignored.
			bl("BenchmarkRun", 50),
			bl("BenchmarkStream/fast", 10),
		},
	}
	foldSpeedups(&rep)
	if got := rep.Speedups["BenchmarkStream/p=256"]; math.Abs(got-4.0) > 1e-12 {
		t.Fatalf("exhaustive/fast speedup = %v, want 4.0", got)
	}
	want := map[string]float64{
		"BenchmarkParallelAwareHier2/p=256/w=2": 600.0 / 320.0,
		"BenchmarkParallelAwareHier2/p=256/w=4": 600.0 / 170.0,
	}
	if len(rep.ParallelSpeedups) != len(want) {
		t.Fatalf("parallel speedups = %v, want exactly %v", rep.ParallelSpeedups, want)
	}
	for k, v := range want {
		if got := rep.ParallelSpeedups[k]; math.Abs(got-v) > 1e-12 {
			t.Fatalf("%s = %v, want %v", k, got, v)
		}
	}
}

func TestParseLineRecordsProcs(t *testing.T) {
	var rep report
	for _, line := range []string{
		"goos: linux",
		"cpu: Test CPU @ 1GHz",
		"BenchmarkStream/fast/p=256-2         	       3	  43570125 ns/op	       0 B/op	       0 allocs/op",
		"BenchmarkRun    	      10	    1000 ns/op",
		"PASS",
	} {
		parseLine(&rep, line)
	}
	if rep.Goos != "linux" || rep.CPU != "Test CPU @ 1GHz" || rep.GOMAXPROCS != 2 {
		t.Fatalf("header %+v, want linux / Test CPU / gomaxprocs 2", rep)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("benchmarks %+v, want 2", rep.Benchmarks)
	}
	fast := rep.Benchmarks[0]
	if fast.Name != "BenchmarkStream/fast/p=256" || fast.Iterations != 3 || fast.NsPerOp != 43570125 ||
		fast.AllocsPerOp == nil || *fast.AllocsPerOp != 0 {
		t.Fatalf("parsed %+v", fast)
	}
	if run := rep.Benchmarks[1]; run.Name != "BenchmarkRun" || run.AllocsPerOp != nil {
		t.Fatalf("parsed %+v", run)
	}
}

func TestFoldRepeatsTakesMedian(t *testing.T) {
	zero, one := int64(0), int64(1)
	lines := []benchLine{
		bl("BenchmarkStream/fast/p=8", 30), bl("BenchmarkStream/fast/p=64", 7),
		bl("BenchmarkStream/fast/p=8", 10), bl("BenchmarkStream/fast/p=8", 90),
		bl("BenchmarkStream/fast/p=64", 5),
	}
	lines[0].AllocsPerOp, lines[2].AllocsPerOp, lines[3].AllocsPerOp = &zero, &one, &zero
	got := foldRepeats(lines)
	if len(got) != 2 {
		t.Fatalf("folded %+v, want 2 lines", got)
	}
	p8, p64 := got[0], got[1]
	if p8.Name != "BenchmarkStream/fast/p=8" || p8.NsPerOp != 30 || p8.Samples != 3 ||
		p8.AllocsPerOp == nil || *p8.AllocsPerOp != 1 {
		t.Fatalf("p=8 folded to %+v, want median 30 over 3 samples, allocs 1", p8)
	}
	if p64.NsPerOp != 6 || p64.Samples != 2 || p64.AllocsPerOp != nil {
		t.Fatalf("p=64 folded to %+v, want median 6 over 2 samples, no allocs", p64)
	}
	if single := foldRepeats([]benchLine{bl("BenchmarkRun", 50)}); single[0].Samples != 0 || single[0].NsPerOp != 50 {
		t.Fatalf("single sample folded to %+v", single[0])
	}
}

func TestParseWorkers(t *testing.T) {
	cases := []struct {
		seg string
		w   int
		ok  bool
	}{
		{"w=1", 1, true},
		{"w=16", 16, true},
		{"w=0", 0, false},
		{"w=-2", 0, false},
		{"w=", 0, false},
		{"w=abc", 0, false},
		{"exhaustive", 0, false},
		{"p=256", 0, false},
	}
	for _, c := range cases {
		w, ok := parseWorkers(c.seg)
		if ok != c.ok || (ok && w != c.w) {
			t.Fatalf("parseWorkers(%q) = (%d,%v), want (%d,%v)", c.seg, w, ok, c.w, c.ok)
		}
	}
}

func writeBaseline(t *testing.T, rep report) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func devNull(t *testing.T) *os.File {
	t.Helper()
	f, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestCompareBaselineParallelGuard pins the new guard: a parallel_speedup
// point that collapses past the threshold against the baseline fails the
// compare, one within the threshold passes, and a missing point fails.
func TestCompareBaselineParallelGuard(t *testing.T) {
	base := report{
		Benchmarks:       []benchLine{bl("BenchmarkParallelUniform/w=1/p=256", 1)},
		Speedups:         map[string]float64{"BenchmarkStream/p=256": 4.0},
		ParallelSpeedups: map[string]float64{"BenchmarkParallelUniform/p=256/w=4": 3.0},
	}
	path := writeBaseline(t, base)
	sink := devNull(t)

	ok := report{
		Speedups:         map[string]float64{"BenchmarkStream/p=256": 4.0},
		ParallelSpeedups: map[string]float64{"BenchmarkParallelUniform/p=256/w=4": 2.5},
	}
	if err := compareBaseline(sink, path, ok, 1.5); err != nil {
		t.Fatalf("within-threshold parallel speedup rejected: %v", err)
	}

	collapsed := report{
		Speedups:         map[string]float64{"BenchmarkStream/p=256": 4.0},
		ParallelSpeedups: map[string]float64{"BenchmarkParallelUniform/p=256/w=4": 1.0},
	}
	err := compareBaseline(sink, path, collapsed, 1.5)
	if err == nil || !strings.Contains(err.Error(), "parallel speedup") {
		t.Fatalf("collapsed parallel speedup not flagged: %v", err)
	}

	missing := report{
		Speedups: map[string]float64{"BenchmarkStream/p=256": 4.0},
	}
	err = compareBaseline(sink, path, missing, 1.5)
	if err == nil || !strings.Contains(err.Error(), "missing from this run") {
		t.Fatalf("missing parallel curve not flagged: %v", err)
	}
}

// TestCompareBaselineAllocGuard keeps the existing allocation contract
// covered next to the new parallel guard: a baseline zero-alloc benchmark
// that starts allocating, or loses its alloc data, fails the compare.
func TestCompareBaselineAllocGuard(t *testing.T) {
	zero := int64(0)
	one := int64(1)
	base := report{
		Benchmarks: []benchLine{
			{Name: "BenchmarkParallelUniform/w=4/p=256", NsPerOp: 1, AllocsPerOp: &zero},
		},
		Speedups: map[string]float64{"BenchmarkStream/p=256": 4.0},
	}
	path := writeBaseline(t, base)
	sink := devNull(t)

	still := report{
		Benchmarks: []benchLine{
			{Name: "BenchmarkParallelUniform/w=4/p=256", NsPerOp: 1, AllocsPerOp: &zero},
		},
		Speedups: map[string]float64{"BenchmarkStream/p=256": 4.0},
	}
	if err := compareBaseline(sink, path, still, 1.5); err != nil {
		t.Fatalf("zero-alloc benchmark rejected: %v", err)
	}

	regressed := report{
		Benchmarks: []benchLine{
			{Name: "BenchmarkParallelUniform/w=4/p=256", NsPerOp: 1, AllocsPerOp: &one},
		},
		Speedups: map[string]float64{"BenchmarkStream/p=256": 4.0},
	}
	err := compareBaseline(sink, path, regressed, 1.5)
	if err == nil || !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("alloc regression not flagged: %v", err)
	}

	noData := report{
		Benchmarks: []benchLine{
			{Name: "BenchmarkParallelUniform/w=4/p=256", NsPerOp: 1},
		},
		Speedups: map[string]float64{"BenchmarkStream/p=256": 4.0},
	}
	err = compareBaseline(sink, path, noData, 1.5)
	if err == nil || !strings.Contains(err.Error(), "no alloc data") {
		t.Fatalf("missing alloc data not flagged: %v", err)
	}
}
