// Command benchfmt converts `go test -bench` output on stdin into the
// machine-readable BENCH_core.json consumed by the benchmark trajectory
// (see README "Performance"): every benchmark line is recorded — with
// B/op and allocs/op when the bench ran under -benchmem — and for each
// BenchmarkStream* family the exhaustive/fast pairs at equal p are
// folded into a speedup ratio. Worker-swept families (sub-benchmarks
// named <family>/w=N/<variant>) are additionally folded into
// parallel_speedup curves: ns/op at w=1 divided by ns/op at each w=N.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkStream -benchtime 3x -benchmem ./internal/core/ | benchfmt -o BENCH_core.json
//
// With -compare BASELINE.json the new report is additionally checked
// against a committed baseline: the per-family exhaustive/fast speedup
// ratios must not have collapsed by more than -threshold (default 1.5),
// and any benchmark the baseline records at zero allocs/op must still
// allocate nothing. A benchmark that appears several times on stdin (go
// test -count N) is recorded once, at its median ns/op, so one noisy
// sample cannot set a point. Speedups are within-run ratios and alloc counts are
// exact, so both checks are robust to the absolute timing noise of CI
// machines while still catching a fast-path revert — a reverted fast
// kernel drags its family's speedup to ~1x, which trips the threshold no
// matter how fast or slow the runner is.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

type benchLine struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp/AllocsPerOp are recorded when the bench ran with
	// -benchmem; nil otherwise. The kernel fast paths promise zero
	// allocs/op, so the compare guard treats a 0 → >0 transition in a
	// baseline family as a regression.
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64   `json:"allocs_per_op,omitempty"`
	// Samples is how many result lines were folded into this one (see
	// foldRepeats); absent for a single sample.
	Samples int `json:"samples,omitempty"`
}

type report struct {
	GeneratedAt string `json:"generated_at"`
	Goos        string `json:"goos,omitempty"`
	Goarch      string `json:"goarch,omitempty"`
	CPU         string `json:"cpu,omitempty"`
	// NumCPU is the host's logical CPU count and GOMAXPROCS the largest
	// the benchmarks ran at (go test's "-N" name suffix, absent at 1):
	// the parallel_speedup curves cannot exceed either, so a reader needs
	// both to tell a flat curve from a starved one.
	NumCPU     int                `json:"num_cpu"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Benchmarks []benchLine        `json:"benchmarks"`
	Speedups   map[string]float64 `json:"speedups"`
	// ParallelSpeedups maps Benchmark<Family>/<variant>/w=N to the
	// within-run ratio ns/op(w=1) ÷ ns/op(w=N) for every worker-swept
	// family (sub-benchmark names of the form <family>/w=N/<variant>).
	// Like the exhaustive/fast speedups these are ratios of two timings
	// from the same process on the same instance, so they survive slow or
	// noisy runners; note that on a single-core runner they sit near 1.0
	// by construction.
	ParallelSpeedups map[string]float64 `json:"parallel_speedup,omitempty"`
}

var lineRE = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+([0-9.]+) ns/op(?:\s+([0-9.]+) B/op)?(?:\s+(\d+) allocs/op)?`)

// parseWorkers recognises the "w=N" path segment of a worker-swept
// sub-benchmark name.
func parseWorkers(seg string) (int, bool) {
	rest, ok := strings.CutPrefix(seg, "w=")
	if !ok {
		return 0, false
	}
	w, err := strconv.Atoi(rest)
	if err != nil || w <= 0 {
		return 0, false
	}
	return w, true
}

func main() {
	out := flag.String("o", "BENCH_core.json", "output file (\"-\" for stdout)")
	compare := flag.String("compare", "", "baseline BENCH_core.json to guard speedups against (empty disables)")
	threshold := flag.Float64("threshold", 1.5, "max tolerated baseline/new speedup ratio before failing")
	flag.Parse()

	rep := report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		NumCPU:      runtime.NumCPU(),
		Speedups:    map[string]float64{},
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		parseLine(&rep, sc.Text())
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchfmt: read: %v\n", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchfmt: no benchmark lines on stdin")
		os.Exit(1)
	}

	rep.Benchmarks = foldRepeats(rep.Benchmarks)
	foldSpeedups(&rep)
	keys := sortedKeys(rep.Speedups)

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchfmt: marshal: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
	} else {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchfmt: write %s: %v\n", *out, err)
			os.Exit(1)
		}
		for _, k := range keys {
			if s, ok := rep.Speedups[k]; ok {
				fmt.Printf("%-40s %5.2fx\n", k, s)
			}
		}
		for _, k := range sortedKeys(rep.ParallelSpeedups) {
			fmt.Printf("%-40s %5.2fx (parallel)\n", k, rep.ParallelSpeedups[k])
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(rep.Benchmarks))
	}

	if *compare != "" {
		// With -o - the JSON report owns stdout; route the comparison
		// table to stderr so the document stays parseable.
		logw := os.Stdout
		if *out == "-" {
			logw = os.Stderr
		}
		if err := compareBaseline(logw, *compare, rep, *threshold); err != nil {
			fmt.Fprintf(os.Stderr, "benchfmt: %v\n", err)
			os.Exit(1)
		}
	}
}

// parseLine folds one line of `go test -bench` output into rep: the
// goos/goarch/cpu header lines, and every benchmark result line.
func parseLine(rep *report, line string) {
	switch {
	case strings.HasPrefix(line, "goos: "):
		rep.Goos = strings.TrimPrefix(line, "goos: ")
	case strings.HasPrefix(line, "goarch: "):
		rep.Goarch = strings.TrimPrefix(line, "goarch: ")
	case strings.HasPrefix(line, "cpu: "):
		rep.CPU = strings.TrimPrefix(line, "cpu: ")
	}
	m := lineRE.FindStringSubmatch(line)
	if m == nil {
		return
	}
	iters, _ := strconv.ParseInt(m[3], 10, 64)
	ns, err := strconv.ParseFloat(m[4], 64)
	if err != nil {
		return
	}
	procs := 1
	if m[2] != "" {
		procs, _ = strconv.Atoi(m[2])
	}
	if procs > rep.GOMAXPROCS {
		rep.GOMAXPROCS = procs
	}
	bl := benchLine{Name: m[1], Iterations: iters, NsPerOp: ns}
	if m[5] != "" {
		if bpo, err := strconv.ParseFloat(m[5], 64); err == nil {
			bl.BytesPerOp = &bpo
		}
	}
	if m[6] != "" {
		if apo, err := strconv.ParseInt(m[6], 10, 64); err == nil {
			bl.AllocsPerOp = &apo
		}
	}
	rep.Benchmarks = append(rep.Benchmarks, bl)
}

// foldRepeats merges the result lines of a benchmark that ran several
// times into one line, in order of first appearance: the median ns/op,
// so a single slow or fast sample cannot set a point, and the largest
// B/op and allocs/op, so the zero-alloc contract holds for every sample.
func foldRepeats(lines []benchLine) []benchLine {
	idx := map[string]int{}
	var out []benchLine
	var ns [][]float64
	for _, b := range lines {
		i, ok := idx[b.Name]
		if !ok {
			idx[b.Name] = len(out)
			out = append(out, b)
			ns = append(ns, []float64{b.NsPerOp})
			continue
		}
		ns[i] = append(ns[i], b.NsPerOp)
		out[i].BytesPerOp = maxOf(out[i].BytesPerOp, b.BytesPerOp)
		out[i].AllocsPerOp = maxOf(out[i].AllocsPerOp, b.AllocsPerOp)
	}
	for i, s := range ns {
		if n := len(s); n > 1 {
			sort.Float64s(s)
			out[i].NsPerOp = (s[(n-1)/2] + s[n/2]) / 2
			out[i].Samples = n
		}
	}
	return out
}

// maxOf returns the larger of two optional values; nil is absent, not 0.
func maxOf[T int64 | float64](a, b *T) *T {
	if a == nil || (b != nil && *b > *a) {
		return b
	}
	return a
}

// foldSpeedups derives the two speedup views from the raw benchmark lines:
// exhaustive/fast pairs at equal variant become Speedups, and worker sweeps
// (<family>/w=N/<variant>) become ParallelSpeedups with the family's own
// w=1 timing as the serial-schedule baseline.
func foldSpeedups(rep *report) {
	// Pair Benchmark<Family>/exhaustive/<variant> with .../fast/<variant>.
	type pair struct{ exhaustive, fast float64 }
	pairs := map[string]*pair{}
	type sweep struct {
		serial float64
		multi  map[int]float64
	}
	sweeps := map[string]*sweep{}
	for _, b := range rep.Benchmarks {
		parts := strings.SplitN(b.Name, "/", 3)
		if len(parts) != 3 {
			continue
		}
		key := parts[0] + "/" + parts[2]
		if w, ok := parseWorkers(parts[1]); ok {
			s := sweeps[key]
			if s == nil {
				s = &sweep{multi: map[int]float64{}}
				sweeps[key] = s
			}
			if w == 1 {
				s.serial = b.NsPerOp
			} else {
				s.multi[w] = b.NsPerOp
			}
			continue
		}
		p := pairs[key]
		if p == nil {
			p = &pair{}
			pairs[key] = p
		}
		switch parts[1] {
		case "exhaustive":
			p.exhaustive = b.NsPerOp
		case "fast":
			p.fast = b.NsPerOp
		}
	}
	for k, p := range pairs {
		if p.exhaustive > 0 && p.fast > 0 {
			rep.Speedups[k] = p.exhaustive / p.fast
		}
	}
	for key, s := range sweeps {
		if s.serial <= 0 {
			continue
		}
		for w, ns := range s.multi {
			if ns > 0 {
				if rep.ParallelSpeedups == nil {
					rep.ParallelSpeedups = map[string]float64{}
				}
				rep.ParallelSpeedups[fmt.Sprintf("%s/w=%d", key, w)] = s.serial / ns
			}
		}
	}
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// compareBaseline fails when any speedup family present in the baseline is
// missing from the new report, or has collapsed by more than threshold
// (baseline/new > threshold). The same guard covers the parallel_speedup
// curves: a w=N point that collapses past the threshold against its
// committed baseline (a worker pool serialising on a lock would drag every
// multi-worker point toward the w=1 baseline) fails the run. It also guards
// the allocation contract: a benchmark that the baseline records at zero
// allocs/op must stay at zero (alloc counts, unlike timings, are
// machine-independent and exact). New families absent from the baseline
// pass: the guard rejects regressions, not additions.
func compareBaseline(logw *os.File, path string, rep report, threshold float64) error {
	if threshold <= 0 {
		return fmt.Errorf("threshold must be positive, got %g", threshold)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	if len(base.Speedups) == 0 {
		return fmt.Errorf("baseline %s has no speedups to compare against", path)
	}

	keys := make([]string, 0, len(base.Speedups))
	for k := range base.Speedups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var regressions []string
	for _, k := range keys {
		baseS := base.Speedups[k]
		if baseS <= 0 {
			continue
		}
		newS, ok := rep.Speedups[k]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: present in baseline (%.2fx) but missing from this run", k, baseS))
			continue
		}
		ratio := baseS / newS
		verdict := "ok"
		if ratio > threshold {
			verdict = "REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: speedup %.2fx vs baseline %.2fx (ratio %.2f > %.2f)", k, newS, baseS, ratio, threshold))
		}
		fmt.Fprintf(logw, "compare %-40s base %5.2fx new %5.2fx  %s\n", k, baseS, newS, verdict)
	}
	for _, k := range sortedKeys(base.ParallelSpeedups) {
		baseS := base.ParallelSpeedups[k]
		if baseS <= 0 {
			continue
		}
		newS, ok := rep.ParallelSpeedups[k]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: parallel speedup in baseline (%.2fx) but missing from this run", k, baseS))
			continue
		}
		ratio := baseS / newS
		verdict := "ok"
		if ratio > threshold {
			verdict = "REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: parallel speedup %.2fx vs baseline %.2fx (ratio %.2f > %.2f)", k, newS, baseS, ratio, threshold))
		}
		fmt.Fprintf(logw, "compare %-40s base %5.2fx new %5.2fx  %s (parallel)\n", k, baseS, newS, verdict)
	}
	newAllocs := map[string]*int64{}
	for _, b := range rep.Benchmarks {
		newAllocs[b.Name] = b.AllocsPerOp
	}
	for _, b := range base.Benchmarks {
		if b.AllocsPerOp == nil || *b.AllocsPerOp != 0 {
			continue
		}
		a, ok := newAllocs[b.Name]
		switch {
		case !ok:
			// A missing benchmark is already reported by the speedup
			// comparison when its family is guarded; don't double up.
		case a == nil:
			// The guard must not silently lapse: if the baseline promises
			// zero allocs but this run carries no alloc data (the bench
			// ran without -benchmem, or the line stopped parsing), that
			// is a broken pipeline, not a pass.
			regressions = append(regressions,
				fmt.Sprintf("%s: baseline promises 0 allocs/op but this run has no alloc data (run with -benchmem)", b.Name))
		case *a > 0:
			regressions = append(regressions,
				fmt.Sprintf("%s: %d allocs/op (baseline promises zero)", b.Name, *a))
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d speedup regression(s) beyond %.2fx against %s:\n  %s",
			len(regressions), threshold, path, strings.Join(regressions, "\n  "))
	}
	fmt.Fprintf(logw, "compare: %d speedup families and %d parallel curves within %.2fx of %s\n",
		len(keys), len(base.ParallelSpeedups), threshold, path)
	return nil
}
