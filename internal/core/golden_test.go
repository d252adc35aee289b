package core

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"hyperpraw/internal/profile"
	"hyperpraw/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/run_hashes.golden from the current kernel")

const runHashesFile = "testdata/run_hashes.golden"

// hashResult folds everything a run reports into one value: the partition,
// the iteration count and stop reason, every History entry (moves and the
// float bits of cost, imbalance and α), the final cost and imbalance, and
// every StreamStats counter.
func hashResult(res Result, ks StreamStats) uint64 {
	h := fnv.New64a()
	put := func(x uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, q := range res.Parts {
		put(uint64(q))
	}
	put(uint64(res.Iterations))
	put(uint64(res.Stopped))
	for _, st := range res.History {
		put(uint64(st.Iteration))
		put(uint64(st.Moves))
		put(math.Float64bits(st.CommCost))
		put(math.Float64bits(st.Imbalance))
		put(math.Float64bits(st.Alpha))
		if st.InTolerance {
			put(1)
		} else {
			put(0)
		}
	}
	put(math.Float64bits(res.FinalCommCost))
	put(math.Float64bits(res.FinalImbalance))
	ksv := reflect.ValueOf(ks)
	for i := 0; i < ksv.NumField(); i++ {
		put(uint64(ksv.Field(i).Int()))
	}
	return h.Sum64()
}

// goldenRunCase is one cell of the golden grid: a configuration and the
// seed of the randomHG instance it partitions.
type goldenRunCase struct {
	label string
	seed  uint64
	cfg   Config
}

// goldenRunCases is the instance × matrix × option grid the golden test
// pins. Every matrix is at p = 64, where no scan choice depends on the
// host, so the counters are as reproducible as the partitions.
func goldenRunCases() []goldenRunCase {
	const p, nv = 64, 1600
	matrices := []struct {
		name string
		cost [][]float64
	}{
		{"uniform", profile.UniformCost(p)},
		{"hier2", hier2Cost(p)},
		{"profiled", physCost(p, 3)},
		{"fewdistinct", fewDistinctCost(p, 4)},
	}
	initial := make([]int32, nv)
	for v := range initial {
		initial[v] = int32((v * 5) % p)
	}
	caps := make([]float64, p)
	rng := stats.NewRNG(17)
	for i := range caps {
		caps[i] = 0.5 + 2*rng.Float64()
	}
	options := []struct {
		name string
		mut  func(*Config)
	}{
		{"natural", func(*Config) {}},
		{"shuffled", func(c *Config) { c.ShuffledOrder, c.Seed = true, 9 }},
		{"repartition", func(c *Config) { c.InitialParts, c.MigrationPenalty = initial, 0.5 }},
		{"frontier", func(c *Config) { c.FrontierRestreaming = true }},
		{"capacities", func(c *Config) { c.Capacities = caps }},
		{"edgeweights", func(c *Config) { c.UseEdgeWeights = true }},
		{"stopattolerance", func(c *Config) { c.RefinementPolicy = StopAtTolerance }},
		{"touchedonly", func(c *Config) { c.forceTouchedOnly = true }},
	}
	var out []goldenRunCase
	for _, hg := range []struct {
		name string
		seed uint64
	}{{"unit", 41}, {"weighted", 42}} {
		for _, m := range matrices {
			for _, o := range options {
				cfg := DefaultConfig(m.cost)
				cfg.MaxIterations = 40
				cfg.RecordHistory = true
				o.mut(&cfg)
				out = append(out, goldenRunCase{hg.name + "/" + m.name + "/" + o.name, hg.seed, cfg})
			}
		}
	}
	return out
}

// TestRunResultsMatchGolden pins what every Partitioner returns — the
// partition, the per-pass history, the final metrics and the kernel
// counters — across the option × matrix grid, so a refactor of the kernel
// or the driver that changes any of them fails here. Each Partitioner runs
// twice, and both runs must match the recorded hash. Regenerate the file
// with `go test ./internal/core -run TestRunResultsMatchGolden -update`
// only for a change that is meant to alter results.
//
// The recorded hashes are amd64's. The Go spec lets a compiler fuse a
// multiply and an add into one rounding, and the compiler does so on
// arm64 and other targets but never on amd64, so float bits (and with
// them ties between candidates) can differ there; on those targets the
// test checks only that the two runs agree.
func TestRunResultsMatchGolden(t *testing.T) {
	compare := !*updateGolden && runtime.GOARCH == "amd64"
	want := map[string]string{}
	if compare {
		f, err := os.Open(runHashesFile)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if fields := strings.Fields(sc.Text()); len(fields) == 2 {
				want[fields[0]] = fields[1]
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	var lines []string
	for _, tc := range goldenRunCases() {
		cfg := tc.cfg
		h := randomHG(tc.seed, 1600, 2200, 8)
		var ks StreamStats
		cfg.Stats = &ks
		pr, err := New(h, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		var got [2]string
		for i := range got {
			ks = StreamStats{}
			res := pr.Run()
			got[i] = fmt.Sprintf("%016x", hashResult(res, ks))
		}
		pr.Release()
		if got[0] != got[1] {
			t.Errorf("%s: first run hashed %s, second %s", tc.label, got[0], got[1])
		}
		lines = append(lines, tc.label+" "+got[0])
		if compare && want[tc.label] != got[0] {
			t.Errorf("%s: hash %s, golden %s", tc.label, got[0], want[tc.label])
		}
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(runHashesFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(runHashesFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
