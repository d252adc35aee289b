// Command perfbench is hyperpraw's end-to-end benchmark. One invocation
// runs one workload from a seed, checks every output it receives, prints
// the end-to-end metrics (or, with -trace 1, the per-layer ledger) one per
// line, and ends with a single JSON result line. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// procStart approximates process start: package initialisation runs
// before main, ahead of any workload code.
var procStart = time.Now()

// e2eMetrics are printed by every untraced run, in this order; BENCHMARK.json
// lists the same names and units.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"jobs_per_s", "jobs/s"},
	{"latency_p50_s", "s"},
	{"latency_tail_s", "s"},
	{"slo_share", "fraction"},
	{"max_rss_mb", "MB"},
	{"pc_geomean", "cost"},
	{"soed_geomean", "count"},
	{"makespan_geomean", "sim_s"},
	{"imbalance_max", "ratio"},
}

// layerMetrics are the per-layer metrics every traced run puts in its
// JSON result; BENCHMARK.json lists the same names and units. The traced
// run prints more (the serving and ingest layers' ledgers) on its
// human-readable lines.
var layerMetrics = []struct{ name, unit string }{
	{"hgen.generate_s", "s"},
	{"profile.ring_s", "s"},
	{"core.index_build_s", "s"},
	{"core.run_s", "s"},
	{"core.pass_s", "s"},
	{"core.ns_per_visit", "ns"},
	{"core.visits", "count"},
	{"core.passes", "count"},
	{"core.moves", "count"},
	{"core.moves_per_visit", "ratio"},
	{"core.scan_blocked", "count"},
	{"core.scan_uniform", "count"},
	{"core.scan_bounded", "count"},
	{"core.scan_exhaustive", "count"},
	{"core.fallback_share", "fraction"},
	{"core.block_rejections", "count"},
	{"core.exact_settles", "count"},
	{"core.frontier_visited", "count"},
	{"metrics.evaluate_s", "s"},
	{"bench.simulate_s", "s"},
	{"ladder.core_s", "s"},
	{"ladder.facade_s", "s"},
	{"ladder.service_s", "s"},
	{"ladder.http_s", "s"},
	{"ladder.gateway_s", "s"},
	{"share.compute", "fraction"},
	{"trace.overhead", "ratio"},
}

type runCfg struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string // directory for span dumps and temporary stores
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome collects what a workload measured and every check it failed.
type outcome struct {
	e2e       map[string]metric
	layer     map[string]metric // traced run only; includes the extra ledger
	lines     []string          // traffic mix and context lines
	attempted int
	failed    int
	problems  []string // failed checks, first few kept verbatim
	nproblems int
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]metric{}, layer: map[string]metric{}}
}

func (o *outcome) setE2E(name string, v float64, unit string) {
	o.e2e[name] = metric{v, unit}
}

func (o *outcome) setLayer(name string, v float64, unit string) {
	o.layer[name] = metric{v, unit}
}

func (o *outcome) linef(format string, a ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, a...))
}

// problem records a failed check.
func (o *outcome) problem(format string, a ...any) {
	o.nproblems++
	if len(o.problems) < 10 {
		o.problems = append(o.problems, fmt.Sprintf(format, a...))
	}
}

type workloadFn func(cfg runCfg, o *outcome) error

var workloads = map[string]workloadFn{
	"restream-batch": runRestreamBatch,
	"serve-open":     runServeOpen,
	"ingest-write":   runIngestWrite,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: restream-batch, serve-open or ingest-write")
		seed    = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 20, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1 records spans and prints the per-layer ledger")
		out     = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span dumps and temporary stores")
	)
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload %s -seed N -seconds S -trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	// The tiers log one line per job; keep those lines out of the result
	// stream but still pay for writing them.
	logf, err := os.Create(filepath.Join(*out, fmt.Sprintf("log-%s-%d.txt", *name, *seed)))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defer logf.Close()
	log.SetOutput(logf)
	// A hung tier must fail the run, not stall it: no run takes this long.
	limit := max(170*time.Second, time.Duration(4**seconds)*time.Second+time.Minute)
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", limit)
		os.Exit(1)
	})
	cfg := runCfg{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	o := newOutcome()
	o.linef("env: workload=%s seed=%d seconds=%g trace=%d nproc=%d gomaxprocs=%d go=%s",
		cfg.workload, cfg.seed, cfg.seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if err := fn(cfg, o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	code := report(cfg, o)
	logf.Close()
	os.Exit(code)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report prints the human-readable lines and the JSON result line and
// returns the exit code.
func report(cfg runCfg, o *outcome) int {
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for _, l := range o.lines {
		fmt.Fprintln(w, l)
	}
	want := e2eMetrics
	got := o.e2e
	if cfg.trace {
		want = layerMetrics
		got = o.layer
		names := make([]string, 0, len(o.layer))
		for n := range o.layer {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "layer %-40s %s %s\n", n, fmtNum(o.layer[n].Value), o.layer[n].Unit)
		}
	} else {
		for _, m := range e2eMetrics {
			if v, ok := o.e2e[m.name]; ok {
				fmt.Fprintf(w, "metric %-20s %s %s\n", m.name, fmtNum(v.Value), v.Unit)
			}
		}
	}
	metrics := map[string]metric{}
	for _, m := range want {
		v, ok := got[m.name]
		if !ok {
			o.problem("metric %s was not measured", m.name)
			continue
		}
		if v.Unit != m.unit {
			o.problem("metric %s has unit %s, want %s", m.name, v.Unit, m.unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			o.problem("metric %s is %v", m.name, v.Value)
			v.Value = 0 // JSON has no encoding for it
		}
		metrics[m.name] = v
	}
	for _, p := range o.problems {
		fmt.Fprintln(w, "check failed:", p)
	}
	if o.nproblems > len(o.problems) {
		fmt.Fprintf(w, "check failed: ... and %d more\n", o.nproblems-len(o.problems))
	}
	correct := o.nproblems == 0
	if o.attempted < 1 {
		correct = false
		o.attempted = 1
		o.failed = 1
	}
	fmt.Fprintf(w, "result: correct=%t attempted=%d failed=%d failed_share=%s\n",
		correct, o.attempted, o.failed, fmtNum(float64(o.failed)/float64(o.attempted)))
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, o.attempted, o.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(w, string(b))
	if !correct {
		return 1
	}
	return 0
}

func fmtNum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// maxRSSMB reads the process's peak resident set (VmHWM) in MB.
func maxRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc/self/status")
}

// setupRepeats is how many times each run builds its set-up; setup_s is
// their median, because a single set-up of about 0.1 s varied from 0.056
// to 0.145 s between runs on a 2-vCPU host.
const setupRepeats = 5
