package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"hyperpraw"
	"hyperpraw/internal/core"
	"hyperpraw/internal/metrics"
	"hyperpraw/internal/profile"
)

// batchJob is one entry of restream-batch's fixed job list.
type batchJob struct {
	inst  string
	scale float64
	mach  string // "archer" or "cloud"
	p     int
	algo  string // aware, oblivious, frontier (aware + FrontierRestreaming) or parallel-w1
}

// batchJobs mixes dense neighbourhoods (sparsine, 2cubes_sphere) with
// sparse ones (webbase-1M, the sat14 duals), short runs with 100-pass
// refinements, and covers the blocked, uniform and frontier scan paths
// plus the one-worker superstep driver. Every instance has at least 20
// vertices per partition; smaller inputs are degenerate (pdb1HYS at
// scale 0.01 on archer/256 ends 100 passes at imbalance 1.41). A pass over
// the list takes about 5 s on a 2-vCPU host.
var batchJobs = []batchJob{
	{"sparsine", 0.03, "archer", 64, "aware"},
	{"sparsine", 0.03, "archer", 64, "oblivious"},
	{"2cubes_sphere", 0.02, "archer", 64, "frontier"},
	{"2cubes_sphere", 0.015, "cloud", 64, "parallel-w1"},
	{"webbase-1M", 0.02, "cloud", 64, "aware"},
	{"sat14_itox_vc1130_dual", 0.01, "cloud", 64, "oblivious"},
	{"webbase-1M", 0.05, "archer", 256, "aware"},
	{"webbase-1M", 0.05, "archer", 256, "oblivious"},
	{"sat14_itox_vc1130_dual", 0.02, "archer", 256, "frontier"},
	{"webbase-1M", 0.02, "archer", 64, "parallel-w1"},
	{"sat14_itox_vc1130_dual", 0.01, "archer", 64, "aware"},
	{"sat14_atco_enc1_opt1_05_21_dual", 0.01, "cloud", 64, "aware"},
}

// batchSLOSeconds is restream-batch's latency limit on one pass over the
// job list (the batch a user waits for).
const batchSLOSeconds = 30

const imbalanceTolerance = 1.10

func (j batchJob) label() string {
	return fmt.Sprintf("%s@%g %s/%d %s", j.inst, j.scale, j.mach, j.p, j.algo)
}

func machineKey(kind string, p int) string { return fmt.Sprintf("%s/%d", kind, p) }

func newMachine(kind string, p int) *hyperpraw.Machine {
	if kind == "cloud" {
		return hyperpraw.NewCloudMachine(p, machineSeed)
	}
	return hyperpraw.NewArcherMachine(p, machineSeed)
}

// batchInputs is one restream-batch set-up: the generated instances and
// the profiled machines.
type batchInputs struct {
	graphs   []*hyperpraw.Hypergraph // per job; jobs on the same instance share one
	machines map[string]*hyperpraw.Machine
	envs     map[string]hyperpraw.Environment
	genS     float64
}

// batchInstanceSeed generates restream-batch's instances.
// It is fixed, not the workload seed: a job's pass count, and with it its
// cost, swings by up to 4x between instance seeds (2cubes_sphere on
// cloud/64 took 8 to 32 passes over four seeds), which would bury the
// program's own speed under input variation. The workload seed instead
// shuffles the job order of every pass, and the results must not depend
// on it.
const batchInstanceSeed = 1

// setupBatch generates the instances, profiles the machines, and warms
// every job with a one-pass run (scratch pools, code paths).
func setupBatch(seed uint64) *batchInputs {
	in := &batchInputs{machines: map[string]*hyperpraw.Machine{}, envs: map[string]hyperpraw.Environment{}}
	byInst := map[string]*hyperpraw.Hypergraph{}
	for _, j := range batchJobs {
		k := fmt.Sprintf("%s@%g", j.inst, j.scale)
		h, ok := byInst[k]
		if !ok {
			t := time.Now()
			h = hyperpraw.GenerateInstance(j.inst, j.scale, seed)
			in.genS += time.Since(t).Seconds()
			byInst[k] = h
		}
		in.graphs = append(in.graphs, h)
		mk := machineKey(j.mach, j.p)
		if _, ok := in.machines[mk]; !ok {
			m := newMachine(j.mach, j.p)
			in.machines[mk] = m
			in.envs[mk] = hyperpraw.Profile(m)
		}
	}
	for i, j := range batchJobs {
		runBatchJob(j, in.graphs[i], in.envs[machineKey(j.mach, j.p)], &hyperpraw.Options{MaxIterations: 1})
	}
	return in
}

// runBatchJob runs one job through the library facade.
func runBatchJob(j batchJob, h *hyperpraw.Hypergraph, env hyperpraw.Environment, o *hyperpraw.Options) ([]int32, hyperpraw.PartitionResult, error) {
	switch j.algo {
	case "aware":
		return hyperpraw.PartitionAware(h, env, o)
	case "oblivious":
		return hyperpraw.PartitionBasic(h, env, o)
	case "frontier":
		o.FrontierRestreaming = true
		return hyperpraw.PartitionAware(h, env, o)
	case "parallel-w1":
		return hyperpraw.PartitionAwareParallel(h, env, o, 1)
	}
	return nil, hyperpraw.PartitionResult{}, fmt.Errorf("unknown algorithm %q", j.algo)
}

// jobRecord is what a distinct job's first run produced; every later run
// of the same job must reproduce it exactly.
type jobRecord struct {
	partsHash uint64
	kernel    hyperpraw.KernelStats
	report    hyperpraw.QualityReport
	makespan  float64
}

func hashParts(parts []int32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, p := range parts {
		b[0], b[1], b[2], b[3] = byte(p), byte(p>>8), byte(p>>16), byte(p>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

func runRestreamBatch(cfg runCfg, o *outcome) error {
	var (
		in     *batchInputs
		setups []float64
		genS   []float64
	)
	for r := 0; r < setupRepeats; r++ {
		t := time.Now()
		in = setupBatch(batchInstanceSeed)
		d := time.Since(t)
		if r == 0 {
			d = time.Since(procStart)
		}
		setups = append(setups, d.Seconds())
		genS = append(genS, in.genS)
	}
	o.setE2E("setup_s", median(setups), "s")

	var tr *tracer
	var passIntervals []float64
	if cfg.trace {
		tr = newTracer()
	}

	first := make([]*jobRecord, len(batchJobs))
	perJob := make([][]float64, len(batchJobs))
	var (
		passTimes []float64
		busy      float64
		evalS     []float64
		simS      []float64
		kernel    hyperpraw.KernelStats // one pass over the list
		mix       = map[string]int{}
	)
	rng := rand.New(rand.NewSource(int64(cfg.seed)))
	t0 := time.Now()
	for pass := 0; pass < 2 || time.Since(t0).Seconds() < cfg.seconds; pass++ {
		var passBusy float64
		for _, i := range rng.Perm(len(batchJobs)) {
			j := batchJobs[i]
			h := in.graphs[i]
			env := in.envs[machineKey(j.mach, j.p)]
			var ks hyperpraw.KernelStats
			opts := &hyperpraw.Options{KernelStats: &ks}
			o.attempted++
			job := pass*len(batchJobs) + i
			root := tr.begin("job", -1, job)
			sp := tr.begin("hyperpraw.partition", root, job)
			t := time.Now()
			if tr != nil {
				last := t
				opts.Progress = func(hyperpraw.IterationStats) {
					now := time.Now()
					passIntervals = append(passIntervals, now.Sub(last).Seconds())
					last = now
				}
			}
			parts, res, err := runBatchJob(j, h, env, opts)
			d := time.Since(t).Seconds()
			tr.end(sp)
			tr.end(root)
			passBusy += d
			perJob[i] = append(perJob[i], d)
			mix[j.mach+"/"+fmt.Sprint(j.p)+" "+j.algo]++
			if err != nil {
				o.failed++
				o.problem("%s: %v", j.label(), err)
				continue
			}
			ok := true
			if err := metrics.ValidatePartition(h, parts, j.p); err != nil {
				o.problem("%s: invalid partition: %v", j.label(), err)
				ok = false
			}
			if res.FinalImbalance > imbalanceTolerance+1e-9 {
				o.problem("%s: imbalance %.4f over tolerance %.2f", j.label(), res.FinalImbalance, imbalanceTolerance)
				ok = false
			}
			rec := jobRecord{partsHash: hashParts(parts), kernel: ks}
			if pass == 0 {
				t = time.Now()
				rec.report = hyperpraw.Evaluate(h, parts, env)
				evalS = append(evalS, time.Since(t).Seconds())
				t = time.Now()
				br, err := hyperpraw.SimulateBenchmark(in.machines[machineKey(j.mach, j.p)], h, parts, nil)
				simS = append(simS, time.Since(t).Seconds())
				if err != nil {
					o.problem("%s: simulate: %v", j.label(), err)
					ok = false
				}
				rec.makespan = br.MakespanSec
				first[i] = &rec
				kernel.Add(ks)
			} else if f := first[i]; f != nil && (f.partsHash != rec.partsHash || f.kernel != rec.kernel) {
				o.problem("%s: pass %d differs from pass 0 (parts or kernel counters)", j.label(), pass)
				ok = false
			}
			if !ok {
				o.failed++
			}
		}
		passTimes = append(passTimes, passBusy)
		busy += passBusy
	}
	elapsed := time.Since(t0).Seconds()

	completed := o.attempted - o.failed
	o.setE2E("jobs_per_s", float64(completed)/busy, "jobs/s")
	o.setE2E("latency_p50_s", median(passTimes), "s")
	slowest := 0.0
	within := 0
	for _, p := range passTimes {
		slowest = math.Max(slowest, p)
		if p <= batchSLOSeconds {
			within++
		}
	}
	o.setE2E("latency_tail_s", slowest, "s")
	o.setE2E("slo_share", float64(within)/float64(len(passTimes)), "fraction")
	rss, err := maxRSSMB()
	if err != nil {
		return err
	}
	o.setE2E("max_rss_mb", rss, "MB")
	setQuality(o, first)
	o.linef("timed: passes=%d jobs=%d elapsed_s=%.3f busy_s=%.3f latency=batch (one pass over %d jobs), tail=slowest of %d passes, slo=%ds per pass",
		len(passTimes), o.attempted, elapsed, busy, len(batchJobs), len(passTimes), batchSLOSeconds)
	for _, k := range sortedKeys(mix) {
		o.linef("mix: %-24s jobs=%d", k, mix[k])
	}
	o.linef("mix: kernel scans per pass blocked=%d uniform=%d bounded=%d exhaustive=%d fallbacks=%d",
		kernel.ScanBlocked, kernel.ScanUniform, kernel.ScanBounded, kernel.ScanExhaustive, kernel.ExhaustiveFallbacks)
	for i, j := range batchJobs {
		if f := first[i]; f != nil {
			o.linef("job: %-52s median_s=%.4f pc=%.6g soed=%d makespan=%.6g imbalance=%.4f passes=%d",
				j.label(), median(perJob[i]), f.report.CommCost, f.report.SOED, f.makespan, f.report.Imbalance, f.kernel.Passes)
		}
	}
	if !cfg.trace {
		return nil
	}

	// Per-layer ledger.
	visits := setKernelLayer(o, kernel)
	o.setLayer("core.run_s", busy/float64(o.attempted), "s")
	o.setLayer("core.pass_s", median(passIntervals), "s")
	o.setLayer("core.ns_per_visit", busy/float64(len(passTimes))/float64(visits)*1e9, "ns")
	o.setLayer("hgen.generate_s", median(genS), "s")
	o.setLayer("metrics.evaluate_s", mean(evalS), "s")
	o.setLayer("bench.simulate_s", mean(simS), "s")
	timeEnvBuild(o, in.machines)
	batchFacadeSplit(o, in)
	batchParallelPoints(o, in)
	self := selfTimes(tr.spans)
	total := 0.0 // every span's self time: the whole traced job time
	for _, v := range self {
		total += v
	}
	o.setLayer("share.compute", self["hyperpraw.partition"]/total, "fraction")
	setSelfTimes(o, tr, completed)
	if err := tr.write(fmt.Sprintf("%s/spans-%s-%d.json", cfg.out, cfg.workload, cfg.seed)); err != nil {
		return err
	}
	return runLadder(cfg, o)
}

// setQuality sets the four quality metrics from the distinct jobs'
// records.
func setQuality(o *outcome, recs []*jobRecord) {
	var pcs, soeds, spans []float64
	worst := 0.0
	for _, r := range recs {
		if r == nil {
			continue
		}
		pcs = append(pcs, r.report.CommCost)
		soeds = append(soeds, float64(r.report.SOED))
		spans = append(spans, r.makespan)
		worst = math.Max(worst, r.report.Imbalance)
	}
	o.setE2E("pc_geomean", geomean(pcs), "cost")
	o.setE2E("soed_geomean", geomean(soeds), "count")
	o.setE2E("makespan_geomean", geomean(spans), "sim_s")
	o.setE2E("imbalance_max", worst, "ratio")
}

// setKernelLayer reports the kernel counters and returns the visit count.
func setKernelLayer(o *outcome, k hyperpraw.KernelStats) int64 {
	visits := k.ScanBlocked + k.ScanUniform + k.ScanBounded + k.ScanExhaustive
	o.setLayer("core.visits", float64(visits), "count")
	o.setLayer("core.passes", float64(k.Passes), "count")
	o.setLayer("core.moves", float64(k.Moves), "count")
	o.setLayer("core.moves_per_visit", ratio(float64(k.Moves), float64(visits)), "ratio")
	o.setLayer("core.scan_blocked", float64(k.ScanBlocked), "count")
	o.setLayer("core.scan_uniform", float64(k.ScanUniform), "count")
	o.setLayer("core.scan_bounded", float64(k.ScanBounded), "count")
	o.setLayer("core.scan_exhaustive", float64(k.ScanExhaustive), "count")
	o.setLayer("core.fallback_share", ratio(float64(k.ExhaustiveFallbacks), float64(visits)), "fraction")
	o.setLayer("core.block_rejections", float64(k.BlockRejections), "count")
	o.setLayer("core.exact_settles", float64(k.ExactSettles), "count")
	o.setLayer("core.frontier_visited", float64(k.FrontierVisited), "count")
	return visits
}

// timeEnvBuild times the ring profiler and the cost-tier index build for
// each machine the workload uses, called directly (the facade's Profile
// runs both inside set-up).
func timeEnvBuild(o *outcome, machines map[string]*hyperpraw.Machine) {
	var ring, index float64
	for _, k := range sortedKeys(machines) {
		t := time.Now()
		bw := profile.RingProfile(machines[k], profile.DefaultConfig())
		r := time.Since(t).Seconds()
		cost := profile.CostMatrix(bw)
		t = time.Now()
		ci := core.BuildCostIndex(cost)
		d := time.Since(t).Seconds()
		ring += r
		index += d
		o.linef("layer-note: %s ring_s=%.6f index_build_s=%.6f index_levels=%d blocks=%d", k, r, d, ci.Levels(), ci.Blocks())
	}
	o.setLayer("profile.ring_s", ring, "s")
	o.setLayer("core.index_build_s", index, "s")
}

// directConfig is the core configuration the facade builds for a job.
func directConfig(j batchJob, env hyperpraw.Environment, idx map[string]*core.CostIndex) core.Config {
	cost, key := env.PhysCost, machineKey(j.mach, j.p)+"/phys"
	if j.algo == "oblivious" {
		cost, key = env.UniformCost, machineKey(j.mach, j.p)+"/uniform"
	}
	if idx[key] == nil {
		idx[key] = core.BuildCostIndex(cost)
	}
	cfg := core.DefaultConfig(cost)
	cfg.Index = idx[key]
	cfg.FrontierRestreaming = j.algo == "frontier"
	return cfg
}

// batchFacadeSplit runs every serial job three ways back to back: on
// core.New + Run directly, through the facade untraced, and through the
// facade with the traced run's instruments (spans and a progress
// callback). Alternating per job keeps the host's slow spells out of the
// differences: the facade's own time is facade minus direct, and
// trace.overhead is traced over untraced facade time. All three must
// agree move for move.
func batchFacadeSplit(o *outcome, in *batchInputs) {
	idx := map[string]*core.CostIndex{}
	scratch := newTracer()
	var news, selfs, intervals []float64
	var plain, traced float64
	for i, j := range batchJobs {
		if j.algo == "parallel-w1" {
			continue
		}
		h := in.graphs[i]
		env := in.envs[machineKey(j.mach, j.p)]
		c := directConfig(j, env, idx)
		t := time.Now()
		pr, err := core.New(h, c)
		newS := time.Since(t).Seconds()
		if err != nil {
			o.problem("%s: core.New: %v", j.label(), err)
			continue
		}
		res := pr.Run()
		direct := time.Since(t).Seconds()
		pr.Release()

		t = time.Now()
		parts, _, _ := runBatchJob(j, h, env, &hyperpraw.Options{})
		facade := time.Since(t).Seconds()

		opts := &hyperpraw.Options{}
		t = time.Now()
		root := scratch.begin("job", -1, i)
		sp := scratch.begin("hyperpraw.partition", root, i)
		last := t
		opts.Progress = func(hyperpraw.IterationStats) {
			now := time.Now()
			intervals = append(intervals, now.Sub(last).Seconds())
			last = now
		}
		tparts, _, _ := runBatchJob(j, h, env, opts)
		scratch.end(sp)
		scratch.end(root)
		traced += time.Since(t).Seconds()
		plain += facade

		if hashParts(parts) != hashParts(res.Parts) || hashParts(tparts) != hashParts(res.Parts) {
			o.problem("%s: direct core run differs from the facade", j.label())
		}
		news = append(news, newS)
		selfs = append(selfs, facade-direct)
	}
	o.setLayer("core.new_s", mean(news), "s")
	o.setLayer("hyperpraw.partition_self_s", mean(selfs), "s")
	o.setLayer("trace.overhead", traced/plain-1, "ratio")
}

// batchParallelPoints measures the superstep driver: w=1 against serial
// on the same jobs (deterministic, same moves), and one w=2 point whose
// speed and quality are reported only (w=2 is not run-to-run
// deterministic).
func batchParallelPoints(o *outcome, in *batchInputs) {
	var ratios []float64
	for i, j := range batchJobs {
		if j.algo != "parallel-w1" {
			continue
		}
		env := in.envs[machineKey(j.mach, j.p)]
		for r := 0; r < 3; r++ {
			t := time.Now()
			hyperpraw.PartitionAware(in.graphs[i], env, nil)
			serial := time.Since(t).Seconds()
			t = time.Now()
			hyperpraw.PartitionAwareParallel(in.graphs[i], env, nil, 1)
			ratios = append(ratios, time.Since(t).Seconds()/serial)
		}
	}
	o.setLayer("core.parallel_w1_ratio", median(ratios), "ratio")

	const w2Job = 6 // webbase-1M@0.05 on archer/256
	j := batchJobs[w2Job]
	env := in.envs[machineKey(j.mach, j.p)]
	h := in.graphs[w2Job]
	var serialS, w2S []float64
	var pcSerial, pcW2 float64
	for r := 0; r < 3; r++ {
		t := time.Now()
		_, rs, _ := hyperpraw.PartitionAware(h, env, nil)
		serialS = append(serialS, time.Since(t).Seconds())
		t = time.Now()
		_, rp, _ := hyperpraw.PartitionAwareParallel(h, env, nil, 2)
		w2S = append(w2S, time.Since(t).Seconds())
		pcSerial, pcW2 = rs.FinalCommCost, rp.FinalCommCost
	}
	o.setLayer("core.parallel_w2_speedup", median(serialS)/median(w2S), "ratio")
	o.setLayer("core.parallel_w2_pc_ratio", pcW2/pcSerial, "ratio")
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
