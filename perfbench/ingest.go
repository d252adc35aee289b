package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"hyperpraw"
	"hyperpraw/internal/graphstore"
	"hyperpraw/internal/hypergraph"
	"hyperpraw/internal/service"
	"hyperpraw/internal/telemetry"
)

const (
	// ingestPartSize splits an upload into 2-4 chunks. Three quarters of
	// the jobs arrive by chunked upload and commit followed by a
	// by-reference job; the rest carry inline hMetis (see ingestInput).
	ingestPartSize = 8 << 10
	// ingestArenaBytes bounds every tier's arena store so LRU eviction
	// runs during the timed phase.
	ingestArenaBytes = 2 << 20
	// ingestQualityJobs is how many leading jobs the quality metrics
	// cover; every run completes at least this many.
	ingestQualityJobs = 480
	ingestSLOSeconds  = 0.25
)

var ingestCombos = []combo{{"archer", 16, "aware"}, {"cloud", 16, "aware"}}

// ingestOptions are every ingest job's options: one cheap pass, so the
// write path does most of each job.
func ingestOptions() *hyperpraw.ServeOptions {
	return &hyperpraw.ServeOptions{DisableRefinement: true}
}

// ingestJob is one never-seen graph and how it arrives.
type ingestJob struct {
	g      poolGraph
	combo  int
	upload bool
}

// ingestInput generates job i's graph: 400-800 vertices, so p=16 keeps
// at least 20 vertices per partition.
// The graph family (i mod 3), machine ((i/3) mod 2) and ingest form (an
// upload unless (i/6) mod 4 == 3) cycle with period 24, so every run
// carries the same mix and only the graphs change with the seed.
func ingestInput(seed uint64, i int) (ingestJob, error) {
	rng := rand.New(rand.NewSource(int64(seed)*7919 + int64(i)))
	v := 400 + rng.Intn(400)
	g, err := genGraph(fmt.Sprintf("ingest-%d-%d", seed, i), i, v, seed*1000003+uint64(i)+1<<32)
	if err != nil {
		return ingestJob{}, err
	}
	return ingestJob{g: g, combo: (i / 3) % len(ingestCombos), upload: (i/6)%4 != 3}, nil
}

func ingestWire(j ingestJob) hyperpraw.PartitionRequest {
	cb := ingestCombos[j.combo]
	w := hyperpraw.PartitionRequest{
		Algorithm: cb.algo,
		Machine:   hyperpraw.MachineSpec{Kind: cb.kind, Cores: cb.p, Seed: machineSeed},
		Options:   ingestOptions(),
		Bench:     &hyperpraw.ServeBenchOptions{},
	}
	if j.upload {
		w.HypergraphID = j.g.id
	} else {
		w.HMetis = string(j.g.text)
	}
	return w
}

// runIngestJob sends one job: upload and commit then reference, or
// inline. The clock covers everything after the input exists.
func runIngestJob(ctx context.Context, c *cluster, j ingestJob, tr *tracer, job int) (servedJob, float64, error) {
	root := tr.begin("job", -1, job)
	defer tr.end(root)
	t := time.Now()
	var uploadS float64
	if j.upload {
		sp := tr.begin("client.upload", root, job)
		info, err := c.cli.UploadHypergraph(ctx, bytes.NewReader(j.g.text), j.g.h.Name(), ingestPartSize)
		uploadS = time.Since(t).Seconds()
		tr.end(sp)
		if err != nil {
			return servedJob{}, 0, fmt.Errorf("upload: %w", err)
		}
		if info.ID != j.g.id {
			return servedJob{}, 0, fmt.Errorf("upload committed as %s, want fingerprint %s", info.ID, j.g.id)
		}
	}
	sj, err := runServed(ctx, c.cli, ingestWire(j), tr, root, job)
	sj.uploadS = uploadS
	return sj, time.Since(t).Seconds(), err
}

func setupIngest(ctx context.Context, cfg runCfg) (*cluster, string, error) {
	dir, err := tempDir(cfg.out, "ingest-")
	if err != nil {
		return nil, "", err
	}
	c, err := startCluster(clusterCfg{dir: dir, arenaBytes: ingestArenaBytes})
	if err != nil {
		return nil, dir, err
	}
	// Warm every kind on each backend in process (env caches, scratch
	// pools), then both ingest forms through the gateway, on graphs from
	// a seed the timed phase never uses.
	for bi, b := range c.backends {
		for ci := range ingestCombos {
			j, err := ingestInput(cfg.seed+1<<40, 100+10*bi+ci)
			if err != nil {
				c.close()
				return nil, dir, err
			}
			j.upload, j.combo = false, ci
			req, err := service.ParseRequest(ingestWire(j))
			if err != nil {
				c.close()
				return nil, dir, err
			}
			info, err := b.svc.Submit(req)
			if err == nil {
				_, _, err = b.svc.Wait(ctx, info.ID)
			}
			if err != nil {
				c.close()
				return nil, dir, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	for i := 0; i < 4; i++ {
		j, err := ingestInput(cfg.seed+1<<40, i)
		if err != nil {
			c.close()
			return nil, dir, err
		}
		j.upload = i%2 == 0
		j.combo = (i / 2) % len(ingestCombos)
		if _, _, err := runIngestJob(ctx, c, j, nil, -1); err != nil {
			c.close()
			return nil, dir, fmt.Errorf("warm-up: %w", err)
		}
	}
	return c, dir, nil
}

func runIngestWrite(cfg runCfg, o *outcome) error {
	ctx := context.Background()
	var (
		c      *cluster
		dir    string
		setups []float64
	)
	cleanup := func() {
		if c != nil {
			c.close()
		}
		if dir != "" {
			os.RemoveAll(dir)
		}
	}
	for r := 0; r < setupRepeats; r++ {
		cleanup()
		t := time.Now()
		var err error
		c, dir, err = setupIngest(ctx, cfg)
		if err != nil {
			c = nil
			cleanup()
			return err
		}
		d := time.Since(t)
		if r == 0 {
			d = time.Since(procStart)
		}
		setups = append(setups, d.Seconds())
	}
	defer cleanup()
	o.setE2E("setup_s", median(setups), "s")

	var (
		tr          *tracer
		before      tierMetrics
		tripsBefore int64
	)
	if cfg.trace {
		tr = newTracer()
		var err error
		if before, err = c.scrapeAll(ctx); err != nil {
			return err
		}
		tripsBefore = c.trans.submits.Load()
	}
	var (
		results          []served
		lat              []float64
		within, uploads  int
		recs             []*jobRecord
		kernel           hyperpraw.KernelStats
		genS, busy       float64
		parseS, ingestS  []float64
		arenaS, parseMBs []float64
		sample           []facadeRun // the byte-for-byte sample
	)
	envs := newEnvCache()
	var scratch, scratchArena *graphstore.Store
	if cfg.trace {
		var err error
		if scratch, err = graphstore.Open(graphstore.Config{MaxBytes: ingestArenaBytes}); err != nil {
			return err
		}
		defer scratch.Close()
		if scratchArena, err = graphstore.Open(graphstore.Config{MaxBytes: ingestArenaBytes}); err != nil {
			return err
		}
		defer scratchArena.Close()
	}
	t0 := time.Now()
	for i := 0; i < ingestQualityJobs || time.Since(t0).Seconds() < cfg.seconds; i++ {
		tg := time.Now()
		j, err := ingestInput(cfg.seed, i)
		if err != nil {
			return err
		}
		genS += time.Since(tg).Seconds()
		o.attempted++
		trace := fmt.Sprintf("ingest-%d", i)
		sj, d, err := runIngestJob(telemetry.WithTrace(ctx, trace), c, j, tr, i)
		busy += d
		results = append(results, served{idx: i, err: err, job: sj, latency: d, trace: trace})

		if j.upload {
			uploads++
		}
		if err != nil {
			o.failed++
			o.problem("job %d: %v", i, err)
			continue
		}
		cb := ingestCombos[j.combo]
		if err := checkServed(j.g.h, cb.p, sj.res); err != nil {
			o.failed++
			o.problem("job %d: %v", i, err)
			continue
		}
		if i%sampleEvery == 0 {
			fr, err := runFacade(envs, j.g.h, cb, ingestOptions())
			if err == nil {
				err = sameResult(sj.res, fr)
			}
			if err != nil {
				o.failed++
				o.problem("sampled job %d: %v", i, err)
				continue
			}
			sample = append(sample, fr)
		}
		sj.res.Parts, sj.res.History = nil, nil // checked; keep the run's own memory flat
		results[len(results)-1].job = sj
		if i < ingestQualityJobs {
			rec := recordOf(sj.res)
			recs = append(recs, &rec)
			kernel.Add(rec.kernel)
		}
		lat = append(lat, d)
		if d <= ingestSLOSeconds {
			within++
		}
		if cfg.trace {
			t := time.Now()
			if _, err := hypergraph.ReadHMetisStream(bytes.NewReader(j.g.text)); err != nil {
				o.problem("job %d: local parse: %v", i, err)
			}
			ps := time.Since(t).Seconds()
			parseS = append(parseS, ps)
			parseMBs = append(parseMBs, float64(len(j.g.text))/(1<<20)/ps)
			t = time.Now()
			a, release, err := scratch.IngestReader(bytes.NewReader(j.g.text), j.g.h.Name())
			ingestS = append(ingestS, time.Since(t).Seconds())
			if err != nil {
				o.problem("job %d: local ingest: %v", i, err)
				continue
			}
			raw := append([]byte(nil), a.Raw()...)
			release()
			scratch.Delete(a.ID()) //nolint:errcheck // scratch copy
			t = time.Now()
			_, release, err = scratchArena.IngestReader(bytes.NewReader(raw), j.g.h.Name())
			arenaS = append(arenaS, time.Since(t).Seconds())
			if err != nil {
				o.problem("job %d: local arena ingest: %v", i, err)
				continue
			}
			release()
		}
	}
	elapsed := time.Since(t0).Seconds()
	completed := o.attempted - o.failed

	o.setE2E("jobs_per_s", float64(completed)/busy, "jobs/s")
	setLatency(o, lat)
	o.setE2E("slo_share", float64(within)/float64(o.attempted), "fraction")
	rss, err := maxRSSMB()
	if err != nil {
		return err
	}
	o.setE2E("max_rss_mb", rss, "MB")
	setQuality(o, recs)
	o.linef("timed: jobs=%d elapsed_s=%.3f busy_s=%.3f quality_jobs=%d slo=%gs", o.attempted, elapsed, busy, len(recs), ingestSLOSeconds)
	o.linef("mix: upload_share=%.4f inline_share=%.4f", float64(uploads)/float64(o.attempted), 1-float64(uploads)/float64(o.attempted))
	o.linef("mix: kernel scans over quality jobs blocked=%d uniform=%d bounded=%d exhaustive=%d fallbacks=%d",
		kernel.ScanBlocked, kernel.ScanUniform, kernel.ScanBounded, kernel.ScanExhaustive, kernel.ExhaustiveFallbacks)
	if !cfg.trace {
		return nil
	}
	o.setLayer("hgen.generate_s", genS, "s")
	o.setLayer("hypergraph.parse_s", median(parseS), "s")
	o.setLayer("hypergraph.parse_mb_per_s", median(parseMBs), "MB/s")
	o.setLayer("graphstore.ingest_s", median(ingestS), "s")
	o.setLayer("graphstore.arena_ingest_s", median(arenaS), "s")
	attachServerTimes(c, results)
	if err := servingLedger(ctx, o, c, before, tripsBefore, results, kernel, sample); err != nil {
		return err
	}
	machines := map[string]*hyperpraw.Machine{}
	for _, cb := range ingestCombos {
		machines[machineKey(cb.kind, cb.p)] = newMachine(cb.kind, cb.p)
	}
	timeEnvBuild(o, machines)
	if err := tr.write(fmt.Sprintf("%s/spans-%s-%d.json", cfg.out, cfg.workload, cfg.seed)); err != nil {
		return err
	}
	setSelfTimes(o, tr, completed)
	// Untraced jobs per busy second, right after the traced phase.
	untraced := untracedIngestRate(ctx, c, cfg.seed)
	o.setLayer("trace.overhead", untraced/(float64(completed)/busy)-1, "ratio")
	cleanup()
	c, dir = nil, ""
	return runLadder(cfg, o)
}

// untracedIngestRate runs a short untraced stretch of fresh jobs and
// returns jobs per busy second.
func untracedIngestRate(ctx context.Context, c *cluster, seed uint64) float64 {
	var busy float64
	n := 0
	for i := 0; i < 100; i++ {
		j, err := ingestInput(seed+2<<40, i)
		if err != nil {
			return 0
		}
		_, d, err := runIngestJob(ctx, c, j, nil, i)
		if err == nil {
			busy += d
			n++
		}
	}
	return float64(n) / busy
}
