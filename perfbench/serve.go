package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"hyperpraw"
	"hyperpraw/internal/hgen"
	"hyperpraw/internal/metrics"
	"hyperpraw/internal/service"
	"hyperpraw/internal/telemetry"
)

// machineSeed fixes the simulated machines' noise for every workload. The
// machine is shared by all jobs of a run, so a per-seed machine would move
// every job's quality together (up to 23% in makespan between seeds)
// instead of averaging out over the workload's many graphs.
const machineSeed uint64 = 1

// combo is a machine and algorithm a serving job runs with.
type combo struct {
	kind string
	p    int
	algo string
}

// serveCombos are serve-open's job kinds. Uniform-cost (oblivious) jobs
// run only at p >= 64: below that the kernel picks its uniform scan by a
// timing probe taken on first use, so scan counters would differ between
// processes.
var serveCombos = []combo{
	{"archer", 16, "aware"}, {"cloud", 16, "aware"},
	{"archer", 64, "aware"}, {"cloud", 64, "aware"},
	{"archer", 64, "oblivious"}, {"cloud", 64, "oblivious"},
}

const (
	// servePoolPerP graphs are generated for each partition count, sized
	// to 20-30 vertices per partition (balance within the 1.10 tolerance
	// is always reachable), so the pool's sizes spread continuously over
	// 320-1920 vertices. 96 graphs x 2 kinds at p=16 plus 96 x 4 kinds at
	// p=64 give 576 distinct jobs, enough to overflow the two backends'
	// 128-entry result LRUs.
	servePoolPerP = 96
	// serveRate is the open loop's fixed arrival rate: below a third of
	// the closed-loop capacity, which measured 268-336 jobs/s on a 2-vCPU
	// host as its speed drifted. Nearer to capacity, a slow spell of the
	// host would turn into queueing and swing latency far more than it
	// swings service time.
	serveRate = 80.0
	// serveRepeatShare of requests repeat one of the last serveRepeatWindow
	// requests and hit a backend result cache; far from one half, so the
	// median stays in the miss mode.
	serveRepeatShare  = 0.25
	serveRepeatWindow = 8
	// serveSLOSeconds is serve-open's latency limit.
	serveSLOSeconds = 0.1
	// sampleEvery picks the fixed sample of requests whose results are
	// compared byte for byte with a direct facade call.
	sampleEvery = 20
)

// servePartitions are the two pool halves' partition counts; pool graph
// i belongs to servePartitions[i/servePoolPerP].
var servePartitions = []int{16, 64}

// poolGraph is one generated input with its hMetis text.
type poolGraph struct {
	h    *hyperpraw.Hypergraph
	text []byte
	id   string // fingerprint, the hypergraph_id every tier assigns
}

// genGraph generates a small graph of about v vertices; the structural
// family cycles with i.
// Only the size varies within a family, so quality metrics averaged over
// a pool move little from one workload seed to the next.
func genGraph(name string, i, v int, seed uint64) (poolGraph, error) {
	spec := hgen.Spec{Name: name, Vertices: v, Hyperedges: v}
	switch i % 3 {
	case 0:
		spec.Kind, spec.AvgCardinality = hgen.KindRandom, 4
	case 1:
		spec.Kind, spec.AvgCardinality, spec.Locality = hgen.KindGeometric, 6, 0.9
	default:
		spec.Kind, spec.AvgCardinality, spec.Skew = hgen.KindPowerLaw, 3.5, 1.2
	}
	h := hgen.Generate(spec, seed)
	text, err := hyperpraw.MarshalHMetis(h)
	if err != nil {
		return poolGraph{}, err
	}
	return poolGraph{h: h, text: []byte(text), id: hyperpraw.Fingerprint(h)}, nil
}

// genPool generates n graphs whose vertex counts spread uniformly over
// [lo, 1.5lo).
func genPool(seed uint64, n, lo int, prefix string) ([]poolGraph, float64, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	t := time.Now()
	out := make([]poolGraph, n)
	for i := range out {
		v := lo + rng.Intn(lo/2)
		g, err := genGraph(fmt.Sprintf("%s-%d", prefix, i), i, v, seed*1000003+uint64(i))
		if err != nil {
			return nil, 0, err
		}
		out[i] = g
	}
	return out, time.Since(t).Seconds(), nil
}

// serveOptions are every serve-open request's options: without the
// refinement phase the kernel runs a few passes (about a millisecond on
// these graphs), so the serving layers do most of each job.
func serveOptions() *hyperpraw.ServeOptions {
	return &hyperpraw.ServeOptions{DisableRefinement: true}
}

func wireFor(g poolGraph, c combo) hyperpraw.PartitionRequest {
	return hyperpraw.PartitionRequest{
		Algorithm:    c.algo,
		Machine:      hyperpraw.MachineSpec{Kind: c.kind, Cores: c.p, Seed: machineSeed},
		HypergraphID: g.id,
		Options:      serveOptions(),
		Bench:        &hyperpraw.ServeBenchOptions{},
	}
}

// serveReq is one request of the open loop's schedule.
type serveReq struct {
	graph, combo int
	repeat       bool
}

func (r serveReq) key() int { return r.graph*len(serveCombos) + r.combo }

// serveKeys lists every distinct job: each pool graph with each kind of
// its partition count.
func serveKeys() []serveReq {
	var keys []serveReq
	for g := 0; g < servePoolPerP*len(servePartitions); g++ {
		p := servePartitions[g/servePoolPerP]
		for c, cb := range serveCombos {
			if cb.p == p {
				keys = append(keys, serveReq{graph: g, combo: c})
			}
		}
	}
	return keys
}

// serveSchedule draws n requests: fresh ones walk a seeded shuffle of
// every distinct job, repeats copy a recent request.
func serveSchedule(seed uint64, n int) []serveReq {
	rng := rand.New(rand.NewSource(int64(seed) + 17))
	keys := serveKeys()
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	out := make([]serveReq, 0, n)
	for i, next := 0, 0; i < n; i++ {
		if i >= serveRepeatWindow && rng.Float64() < serveRepeatShare {
			r := out[i-1-rng.Intn(serveRepeatWindow)]
			r.repeat = true
			out = append(out, r)
			continue
		}
		out = append(out, keys[next%len(keys)])
		next++
	}
	return out
}

// served is one finished (or failed) request of a serving workload.
type served struct {
	idx     int
	latency float64 // s; open loop: from the due time
	late    float64 // s the generator issued it behind schedule
	err     error
	job     servedJob
	trace   string // X-Hyperpraw-Trace ID the job was submitted with
	// queueWait and exec come from the backend's JobInfo (traced only);
	// matched is false once the backend has pruned the job (it keeps the
	// last maxJobs).
	queueWait, exec float64
	matched         bool
}

// attachServerTimes copies each job's queue wait and execution time from
// the backends' public JobInfo, matched by trace ID; jobs the backends
// have already pruned stay unmatched.
func attachServerTimes(c *cluster, results []served) {
	infos := map[string]hyperpraw.JobInfo{}
	for _, b := range c.backends {
		for _, info := range b.svc.Jobs() {
			infos[info.Trace] = info
		}
	}
	for i := range results {
		if info, ok := infos[results[i].trace]; ok {
			results[i].queueWait, results[i].exec = info.QueueWaitMS/1e3, info.ExecMS/1e3
			results[i].matched = true
		}
	}
}

// facadeRun is a request recomputed directly through the facade: what the
// service must have returned, plus the kernel's counters and timings.
type facadeRun struct {
	parts  []int32
	report hyperpraw.QualityReport
	bench  hyperpraw.BenchResult
	kernel hyperpraw.KernelStats
	runS   float64
	evalS  float64
	simS   float64
	passS  []float64
	visits int64
}

// envCache profiles each machine once for the facade runs.
type envCache struct {
	envs map[string]hyperpraw.Environment
	ms   map[string]*hyperpraw.Machine
}

func newEnvCache() *envCache {
	return &envCache{envs: map[string]hyperpraw.Environment{}, ms: map[string]*hyperpraw.Machine{}}
}

func (e *envCache) get(kind string, p int) (*hyperpraw.Machine, hyperpraw.Environment) {
	k := machineKey(kind, p)
	if m, ok := e.ms[k]; ok {
		return m, e.envs[k]
	}
	m := newMachine(kind, p)
	e.ms[k] = m
	e.envs[k] = hyperpraw.Profile(m)
	return m, e.envs[k]
}

func runFacade(envs *envCache, h *hyperpraw.Hypergraph, c combo, opts *hyperpraw.ServeOptions) (facadeRun, error) {
	m, env := envs.get(c.kind, c.p)
	var fr facadeRun
	o := opts.Options()
	if o == nil {
		o = &hyperpraw.Options{}
	}
	o.KernelStats = &fr.kernel
	var err error
	t := time.Now()
	last := t
	o.Progress = func(hyperpraw.IterationStats) {
		now := time.Now()
		fr.passS = append(fr.passS, now.Sub(last).Seconds())
		last = now
	}
	switch c.algo {
	case "aware":
		fr.parts, _, err = hyperpraw.PartitionAware(h, env, o)
	case "oblivious":
		fr.parts, _, err = hyperpraw.PartitionBasic(h, env, o)
	default:
		err = fmt.Errorf("unsupported algorithm %q", c.algo)
	}
	fr.runS = time.Since(t).Seconds()
	if err != nil {
		return fr, err
	}
	t = time.Now()
	fr.report = hyperpraw.Evaluate(h, fr.parts, env)
	fr.evalS = time.Since(t).Seconds()
	t = time.Now()
	fr.bench, err = hyperpraw.SimulateBenchmark(m, h, fr.parts, nil)
	fr.simS = time.Since(t).Seconds()
	k := fr.kernel
	fr.visits = k.ScanBlocked + k.ScanUniform + k.ScanBounded + k.ScanExhaustive
	return fr, err
}

// sameResult compares a served result with a facade run byte for byte on
// the partition, the quality report and the simulated benchmark.
func sameResult(res *hyperpraw.JobResult, fr facadeRun) error {
	a, err := json.Marshal(res.Parts)
	if err != nil {
		return err
	}
	b, err := json.Marshal(fr.parts)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("partition differs from the facade's")
	}
	want := fr.report
	want.Algorithm, want.Hypergraph = res.Report.Algorithm, res.Report.Hypergraph
	a, _ = json.Marshal(res.Report)
	b, _ = json.Marshal(want)
	if !bytes.Equal(a, b) {
		return fmt.Errorf("report %s differs from the facade's %s", a, b)
	}
	if res.Bench != nil {
		a, _ = json.Marshal(res.Bench)
		b, _ = json.Marshal(fr.bench)
		if !bytes.Equal(a, b) {
			return fmt.Errorf("bench %s differs from the facade's %s", a, b)
		}
	}
	return nil
}

// recordOf is the part of a served result every later result for the
// same job must repeat exactly.
func recordOf(res *hyperpraw.JobResult) jobRecord {
	r := jobRecord{partsHash: hashParts(res.Parts), report: res.Report}
	r.report.Algorithm, r.report.Hypergraph = "", ""
	if res.Bench != nil {
		r.makespan = res.Bench.MakespanSec
	}
	if res.Kernel != nil {
		r.kernel = *res.Kernel
	}
	return r
}

// checkServed validates a served result against its input and returns
// the first problem.
func checkServed(h *hyperpraw.Hypergraph, p int, res *hyperpraw.JobResult) error {
	if res.K != p {
		return fmt.Errorf("k=%d, want %d", res.K, p)
	}
	if err := metrics.ValidatePartition(h, res.Parts, p); err != nil {
		return fmt.Errorf("invalid partition: %w", err)
	}
	if res.Report.Imbalance > imbalanceTolerance+1e-9 {
		return fmt.Errorf("imbalance %.4f over tolerance %.2f", res.Report.Imbalance, imbalanceTolerance)
	}
	return nil
}

// serveSetup is one serve-open set-up.
type serveSetup struct {
	c      *cluster
	pool   []poolGraph
	genS   float64
	warmup []poolGraph
}

func setupServeOpen(ctx context.Context, seed uint64) (*serveSetup, error) {
	s := &serveSetup{}
	var err error
	for i, p := range servePartitions {
		half, genS, err := genPool(seed+uint64(i)<<32, servePoolPerP, 20*p, fmt.Sprintf("pool%d", p))
		if err != nil {
			return nil, err
		}
		s.pool = append(s.pool, half...)
		s.genS += genS
		warm, _, err := genPool(seed+uint64(i)<<32+1<<40, 2, 20*p, fmt.Sprintf("warm%d", p))
		if err != nil {
			return nil, err
		}
		s.warmup = append(s.warmup, warm...)
	}
	if s.c, err = startCluster(clusterCfg{}); err != nil {
		return nil, err
	}
	all := append(append([]poolGraph(nil), s.pool...), s.warmup...)
	for _, g := range all {
		info, err := s.c.cli.IngestHypergraph(ctx, g.text, g.h.Name())
		if err != nil {
			s.c.close()
			return nil, fmt.Errorf("uploading %s: %w", g.h.Name(), err)
		}
		if info.ID != g.id {
			s.c.close()
			return nil, fmt.Errorf("uploaded %s committed as %s, want fingerprint %s", g.h.Name(), info.ID, g.id)
		}
		// Place every graph on both backends so the timed phase reads
		// graphs and never replicates them (ingest-write loads that path).
		for _, b := range s.c.backends {
			if _, release, err := b.graphs.Put(g.h); err != nil {
				s.c.close()
				return nil, err
			} else {
				release()
			}
		}
	}
	if err := warmServing(ctx, s.c, s.warmup); err != nil {
		s.c.close()
		return nil, err
	}
	return s, nil
}

// warmFor picks warm-up graph i (0 or 1) sized for cb's partition count.
func warmFor(warm []poolGraph, cb combo, i int) poolGraph {
	for k, p := range servePartitions {
		if p == cb.p {
			return warm[2*k+i]
		}
	}
	return warm[i]
}

// warmServing runs every job kind once on each backend in process (env
// caches, scratch pools) and once through the gateway on another graph
// (connections, proxy paths).
func warmServing(ctx context.Context, c *cluster, warm []poolGraph) error {
	for _, b := range c.backends {
		for _, cb := range serveCombos {
			req, err := service.ParseRequest(wireFor(warmFor(warm, cb, 0), cb))
			if err != nil {
				return err
			}
			info, err := b.svc.Submit(req)
			if err != nil {
				return fmt.Errorf("warm-up submit: %w", err)
			}
			if _, _, err := b.svc.Wait(ctx, info.ID); err != nil {
				return fmt.Errorf("warm-up wait: %w", err)
			}
		}
	}
	for _, cb := range serveCombos {
		if _, err := runServed(ctx, c.cli, wireFor(warmFor(warm, cb, 1), cb), nil, -1, -1); err != nil {
			return fmt.Errorf("warm-up through the gateway: %w", err)
		}
	}
	return nil
}

func runServeOpen(cfg runCfg, o *outcome) error {
	ctx := context.Background()
	var (
		s      *serveSetup
		setups []float64
		genS   []float64
	)
	for r := 0; r < setupRepeats; r++ {
		if s != nil {
			s.c.close()
		}
		t := time.Now()
		var err error
		if s, err = setupServeOpen(ctx, cfg.seed); err != nil {
			return err
		}
		d := time.Since(t)
		if r == 0 {
			d = time.Since(procStart)
		}
		setups = append(setups, d.Seconds())
		genS = append(genS, s.genS)
	}
	defer s.c.close()
	o.setE2E("setup_s", median(setups), "s")

	n := int(math.Round(serveRate * cfg.seconds))
	sched := serveSchedule(cfg.seed, n)
	var (
		tr          *tracer
		before      tierMetrics
		tripsBefore int64
		untracedP50 float64
	)
	if cfg.trace {
		// The traced run first plays the schedule untraced, as the
		// baseline for trace.overhead (open-loop throughput is the offered
		// rate either way, so the overhead compares median latency), then
		// continues the same schedule, on fresh keys, with tracing on.
		full := serveSchedule(cfg.seed, 2*n)
		base, _ := openLoop(ctx, s, full[:n], nil, "base")
		var lat []float64
		for _, r := range base {
			if r.err == nil {
				lat = append(lat, r.latency)
			}
		}
		untracedP50 = median(lat)
		sched = full[n:]
		tr = newTracer()
		var err error
		if before, err = s.c.scrapeAll(ctx); err != nil {
			return err
		}
		tripsBefore = s.c.trans.submits.Load()
	}
	results, elapsed := openLoop(ctx, s, sched, tr, "open")

	var (
		lat       []float64
		late      []float64
		within    int
		first     = map[int]*jobRecord{}
		firstRes  = map[int]*hyperpraw.JobResult{}
		hits, env int
		repeats   int
	)
	for _, r := range results {
		o.attempted++
		late = append(late, r.late)
		req := sched[r.idx]
		if req.repeat {
			repeats++
		}
		if r.err != nil {
			o.failed++
			o.problem("request %d: %v", r.idx, r.err)
			continue
		}
		res := r.job.res
		cb := serveCombos[req.combo]
		if err := checkServed(s.pool[req.graph].h, cb.p, res); err != nil {
			o.failed++
			o.problem("request %d: %v", r.idx, err)
			continue
		}
		rec := recordOf(res)
		if f, ok := first[req.key()]; !ok {
			first[req.key()] = &rec
			firstRes[req.key()] = res
		} else if *f != rec {
			o.failed++
			o.problem("request %d: result differs from the first result for the same job", r.idx)
			continue
		} else {
			res.Parts, res.History = nil, nil // checked; keep the run's own memory flat
		}
		if res.ResultCacheHit {
			hits++
		}
		if res.EnvCacheHit {
			env++
		}
		lat = append(lat, r.latency)
		if r.latency <= serveSLOSeconds {
			within++
		}
	}
	completed := o.attempted - o.failed

	// Byte-for-byte sample: fresh requests at fixed schedule positions,
	// recomputed through the facade.
	envs := newEnvCache()
	var sample []facadeRun
	for i := 0; i < len(sched); i += sampleEvery {
		req := sched[i]
		res := firstRes[req.key()]
		if res == nil {
			continue
		}
		fr, err := runFacade(envs, s.pool[req.graph].h, serveCombos[req.combo], serveOptions())
		if err == nil {
			err = sameResult(res, fr)
		}
		if err != nil {
			o.failed++
			o.problem("sampled request %d: %v", i, err)
			continue
		}
		sample = append(sample, fr)
	}

	o.setE2E("jobs_per_s", float64(completed)/elapsed, "jobs/s")
	setLatency(o, lat)
	o.setE2E("slo_share", float64(within)/float64(o.attempted), "fraction")
	rss, err := maxRSSMB()
	if err != nil {
		return err
	}
	o.setE2E("max_rss_mb", rss, "MB")
	recs := make([]*jobRecord, 0, len(first))
	for _, k := range sortedIntKeys(first) {
		recs = append(recs, first[k])
	}
	setQuality(o, recs)
	lateP99 := percentile(late, 99)
	o.linef("timed: requests=%d rate=%g/s elapsed_s=%.3f distinct_jobs=%d sampled=%d loadgen_late_p99_s=%.6f slo=%gs",
		len(sched), serveRate, elapsed, len(first), len(sample), lateP99, serveSLOSeconds)
	o.linef("mix: repeat_share=%.4f result_cache_hit_share=%.4f env_cache_hit_share=%.4f",
		float64(repeats)/float64(len(sched)), ratio(float64(hits), float64(completed)), ratio(float64(env), float64(completed)))
	kinds := map[string]int{}
	for _, r := range sched {
		cb := serveCombos[r.combo]
		kinds[fmt.Sprintf("%s/%d %s", cb.kind, cb.p, cb.algo)]++
	}
	for _, k := range sortedKeys(kinds) {
		o.linef("mix: %-24s requests=%d", k, kinds[k])
	}
	var kernel hyperpraw.KernelStats
	for _, k := range sortedIntKeys(first) {
		kernel.Add(first[k].kernel)
	}
	o.linef("mix: kernel scans over distinct jobs blocked=%d uniform=%d bounded=%d exhaustive=%d fallbacks=%d",
		kernel.ScanBlocked, kernel.ScanUniform, kernel.ScanBounded, kernel.ScanExhaustive, kernel.ExhaustiveFallbacks)
	if !cfg.trace {
		return nil
	}

	o.setLayer("loadgen.late_p99_s", lateP99, "s")
	o.setLayer("hgen.generate_s", median(genS), "s")
	attachServerTimes(s.c, results)
	if err := servingLedger(ctx, o, s.c, before, tripsBefore, results, kernel, sample); err != nil {
		return err
	}
	machines := map[string]*hyperpraw.Machine{}
	for _, cb := range serveCombos {
		machines[machineKey(cb.kind, cb.p)] = newMachine(cb.kind, cb.p)
	}
	timeEnvBuild(o, machines)
	if err := tr.write(fmt.Sprintf("%s/spans-%s-%d.json", cfg.out, cfg.workload, cfg.seed)); err != nil {
		return err
	}
	setSelfTimes(o, tr, completed)
	o.setLayer("trace.overhead", median(lat)/untracedP50-1, "ratio")
	s.c.close()
	return runLadder(cfg, o)
}

// openLoop issues sched at serveRate from one generator, with two client
// workers (the client's two connections), and returns every outcome and
// the wall time from the first due time to the last result.
func openLoop(ctx context.Context, s *serveSetup, sched []serveReq, tr *tracer, tracePrefix string) ([]served, float64) {
	type due struct {
		idx       int
		due, sent time.Time
	}
	work := make(chan due, len(sched)) // sized to every send: the generator never blocks
	out := make([]served, len(sched))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range work {
				req := sched[d.idx]
				wire := wireFor(s.pool[req.graph], serveCombos[req.combo])
				trace := fmt.Sprintf("%s-%d", tracePrefix, d.idx)
				root := tr.begin("job", -1, d.idx)
				sj, err := runServed(telemetry.WithTrace(ctx, trace), s.c.cli, wire, tr, root, d.idx)
				done := time.Now()
				tr.end(root)
				out[d.idx] = served{idx: d.idx, err: err, job: sj, trace: trace,
					latency: openLoopLatency(d.due, done).Seconds(), late: lateness(d.due, d.sent).Seconds()}
			}
		}()
	}
	t0 := time.Now().Add(10 * time.Millisecond)
	for i := range sched {
		at := t0.Add(time.Duration(float64(i) / serveRate * float64(time.Second)))
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		work <- due{idx: i, due: at, sent: time.Now()}
	}
	close(work)
	wg.Wait()
	return out, time.Since(t0).Seconds()
}

// tailWindows is how many consecutive windows latency_tail_s is taken
// over (see windowedTail).
const tailWindows = 5

// setLatency sets latency_p50_s and latency_tail_s and prints the tail's
// percentile and sample count.
func setLatency(o *outcome, lat []float64) {
	o.setE2E("latency_p50_s", median(lat), "s")
	v, p, ok := windowedTail(lat, tailWindows, 10)
	if !ok {
		o.problem("latency tail needs more than 10 samples in each of %d windows, have %d samples", tailWindows, len(lat))
	}
	o.setE2E("latency_tail_s", v, "s")
	o.linef("latency: samples=%d p50_s=%.6f tail=median over %d windows of p%.2f (10 samples beyond, %d samples per window) tail_s=%.6f",
		len(lat), median(lat), tailWindows, p, len(lat)/tailWindows, v)
}

// servingLedger fills the serving tiers' per-layer metrics from the
// client-side splits, the public JobInfo/JobResult timing fields and the
// tiers' /metrics.
func servingLedger(ctx context.Context, o *outcome, c *cluster, before tierMetrics, tripsBefore int64, results []served, kernel hyperpraw.KernelStats, sample []facadeRun) error {
	after, err := c.scrapeAll(ctx)
	if err != nil {
		return err
	}
	var (
		queue, exec, compute, self, overhead []float64
		submit, events, result, upload       []float64
		hits, envHits, ok                    int
		busy, computeTotal                   float64
	)
	for _, r := range results {
		if r.err != nil {
			continue
		}
		ok++
		res := r.job.res
		client := r.job.submitS + r.job.eventsS + r.job.resultS
		busy += client + r.job.uploadS
		if r.matched {
			queue = append(queue, r.queueWait)
			exec = append(exec, r.exec)
			overhead = append(overhead, client-r.queueWait-r.exec)
		}
		if res.ResultCacheHit {
			hits++
		} else {
			compute = append(compute, res.ElapsedMS/1e3)
			computeTotal += res.ElapsedMS / 1e3
			if r.matched {
				self = append(self, r.exec-res.ElapsedMS/1e3)
			}
		}
		if res.EnvCacheHit {
			envHits++
		}
		submit = append(submit, r.job.submitS)
		events = append(events, r.job.eventsS)
		result = append(result, r.job.resultS)
		if r.job.uploadS > 0 {
			upload = append(upload, r.job.uploadS)
		}
	}
	jobs := float64(max(ok, 1))
	o.setLayer("service.queue_wait_s", median(queue), "s")
	o.setLayer("service.exec_s", median(exec), "s")
	o.setLayer("service.compute_s", median(compute), "s")
	o.setLayer("service.self_s", median(self), "s")
	o.setLayer("service.result_cache_hit_share", float64(hits)/jobs, "fraction")
	o.setLayer("service.env_cache_hit_share", float64(envHits)/jobs, "fraction")
	o.setLayer("service.rejected_share",
		delta(before.backends, after.backends, "hyperpraw_jobs_rejected_total", nil)/float64(len(results)), "fraction")
	o.setLayer("gateway.overhead_s", median(overhead), "s")
	for _, op := range []string{"submit", "graph_probe", "job", "result", "replicate"} {
		m := map[string]string{"op": op}
		calls := delta(before.gateway, after.gateway, "hpgate_backend_requests_total", m)
		o.setLayer("gateway.upstream_per_job."+op, calls/jobs, "count")
		secs := delta(before.gateway, after.gateway, "hpgate_upstream_seconds_sum", m)
		n := delta(before.gateway, after.gateway, "hpgate_upstream_seconds_count", m)
		o.setLayer("gateway.upstream_s."+op, ratio(secs, n), "s")
	}
	o.setLayer("client.submit_s", median(submit), "s")
	o.setLayer("client.events_s", median(events), "s")
	o.setLayer("client.result_s", median(result), "s")
	if len(upload) > 0 {
		o.setLayer("client.upload_s", median(upload), "s")
	}
	// Attempts 1 (no retry policy): any extra submit round trip is a retry.
	o.setLayer("client.retries", float64(c.trans.submits.Load()-tripsBefore-countSubmits(results)), "count")
	o.setLayer("share.compute", computeTotal/busy, "fraction")

	o.setLayer("graphstore.replications_per_job", delta(before.gateway, after.gateway, "hpgate_graph_replications_total", nil)/jobs, "count")
	o.setLayer("graphstore.evictions", delta(before.backends, after.backends, "hyperpraw_graph_evictions_total", nil)+
		delta(before.gateway, after.gateway, "hpgate_graph_evictions_total", nil), "count")
	o.setLayer("graphstore.resident_mb", (sumSeries(after.backends, "hyperpraw_graph_bytes", nil)+
		sumSeries(after.gateway, "hpgate_graph_bytes", nil))/(1<<20), "MB")
	appendS := delta(before.backends, after.backends, "hyperpraw_store_append_seconds_sum", nil)
	appends := delta(before.backends, after.backends, "hyperpraw_store_append_seconds_count", nil)
	o.setLayer("store.append_s", ratio(appendS, appends), "s")
	o.setLayer("store.appends_per_job", appends/jobs, "count")
	o.setLayer("store.compactions", delta(before.backends, after.backends, "hyperpraw_store_compaction_seconds_count", nil), "count")

	setKernelLayer(o, kernel)
	var runS, passS, evalS, simS []float64
	var sampleVisits int64
	var sampleRun float64
	for _, fr := range sample {
		runS = append(runS, fr.runS)
		passS = append(passS, fr.passS...)
		evalS = append(evalS, fr.evalS)
		simS = append(simS, fr.simS)
		sampleVisits += fr.visits
		sampleRun += fr.runS
	}
	o.setLayer("core.run_s", median(runS), "s")
	o.setLayer("core.pass_s", median(passS), "s")
	o.setLayer("core.ns_per_visit", ratio(sampleRun, float64(sampleVisits))*1e9, "ns")
	o.setLayer("metrics.evaluate_s", median(evalS), "s")
	o.setLayer("bench.simulate_s", median(simS), "s")
	return nil
}

func countSubmits(results []served) int64 {
	var n int64
	for _, r := range results {
		if r.job.submitS > 0 {
			n++
		}
	}
	return n
}

// setSelfTimes adds each span name's self time per completed job.
func setSelfTimes(o *outcome, tr *tracer, jobs int) {
	for name, v := range selfTimes(tr.spans) {
		o.setLayer("self."+name+"_s", v/float64(max(jobs, 1)), "s")
	}
}

func sortedIntKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
