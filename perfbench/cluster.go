package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hyperpraw"
	"hyperpraw/client"
	"hyperpraw/internal/gateway"
	"hyperpraw/internal/graphstore"
	"hyperpraw/internal/service"
	"hyperpraw/internal/store"
	"hyperpraw/internal/telemetry"
)

// clusterCfg shapes the in-process serving topology: one hpgate fronting
// two hpserve backends on loopback, each backend with one worker.
type clusterCfg struct {
	// dir, when set, makes the backends durable: each journals its jobs
	// to a store under dir.
	dir string
	// arenaBytes bounds every tier's hypergraph arena store (0 = unbounded).
	arenaBytes int64
}

// maxJobs bounds the jobs each tier retains for status queries. Below the
// default (4096) so that retained results reach their steady-state memory
// early in a run and max_rss_mb does not grow with throughput.
const maxJobs = 1024

type backendNode struct {
	svc    *service.Service
	url    string
	graphs *graphstore.Store
	jobs   *store.Store
}

type cluster struct {
	backends []*backendNode
	gw       *gateway.Gateway
	gwURL    string
	gwGraphs *graphstore.Store
	servers  []*http.Server
	serving  sync.WaitGroup
	// cli is the benchmark's client to the gateway: at most 2 connections.
	cli   *client.Client
	trans *countingTransport
}

// serveHTTP serves h on a fresh loopback listener and returns its URL.
func (c *cluster) serveHTTP(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	c.servers = append(c.servers, srv)
	c.serving.Add(1)
	go func() {
		defer c.serving.Done()
		srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

func startCluster(cc clusterCfg) (*cluster, error) {
	c := &cluster{}
	for i := 0; i < 2; i++ {
		b := &backendNode{}
		var err error
		b.graphs, err = graphstore.Open(graphstore.Config{MaxBytes: cc.arenaBytes})
		if err != nil {
			c.close()
			return nil, err
		}
		cfg := service.Config{Workers: 1, MaxJobs: maxJobs, Metrics: telemetry.NewRegistry(), Graphs: b.graphs}
		if cc.dir != "" {
			b.jobs, err = store.Open(fmt.Sprintf("%s/backend-%d", cc.dir, i))
			if err != nil {
				b.graphs.Close()
				c.close()
				return nil, err
			}
			cfg.Store = b.jobs
		}
		b.svc = service.New(cfg)
		c.backends = append(c.backends, b)
		if b.url, err = c.serveHTTP(service.NewHandler(b.svc)); err != nil {
			c.close()
			return nil, err
		}
	}
	var err error
	c.gwGraphs, err = graphstore.Open(graphstore.Config{MaxBytes: cc.arenaBytes})
	if err != nil {
		c.close()
		return nil, err
	}
	c.gw = gateway.New(gateway.Config{
		Backends:       []string{c.backends[0].url, c.backends[1].url},
		HealthInterval: -1,
		MaxJobs:        maxJobs,
		Metrics:        telemetry.NewRegistry(),
		Graphs:         c.gwGraphs,
	})
	if c.gwURL, err = c.serveHTTP(gateway.NewHandler(c.gw)); err != nil {
		c.close()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c.gw.CheckBackends(ctx)
	c.trans = newCountingTransport(2)
	c.cli = client.New(c.gwURL, &http.Client{Transport: c.trans})
	return c, nil
}

// close stops every server and store the cluster started and waits for
// the serving goroutines to return.
func (c *cluster) close() {
	for _, s := range c.servers {
		s.Close()
	}
	c.serving.Wait()
	if c.trans != nil {
		c.trans.CloseIdleConnections()
	}
	if c.gw != nil {
		c.gw.Close()
	}
	if c.gwGraphs != nil {
		c.gwGraphs.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, b := range c.backends {
		if b.svc != nil {
			b.svc.Shutdown(ctx) //nolint:errcheck // best effort at teardown
		}
		if b.graphs != nil {
			b.graphs.Close()
		}
		if b.jobs != nil {
			b.jobs.Close()
		}
	}
}

// servedJob is one job's client-side view: result, final status and the
// split of its latency across client calls.
type servedJob struct {
	info                               hyperpraw.JobInfo
	res                                *hyperpraw.JobResult
	submitS, eventsS, resultS, uploadS float64
}

// runServed submits wire through cli, waits for the SSE done frame and
// fetches the result. tr, when set, records spans under parent.
func runServed(ctx context.Context, cli *client.Client, wire hyperpraw.PartitionRequest, tr *tracer, parent, job int) (servedJob, error) {
	var sj servedJob
	sp := tr.begin("client.submit", parent, job)
	t := time.Now()
	info, err := cli.Submit(ctx, wire)
	sj.submitS = time.Since(t).Seconds()
	tr.end(sp)
	if err != nil {
		return sj, fmt.Errorf("submit: %w", err)
	}
	sp = tr.begin("client.events", parent, job)
	t = time.Now()
	var final hyperpraw.ProgressEvent
	err = cli.StreamProgress(ctx, info.ID, 0, func(ev hyperpraw.ProgressEvent) error {
		if ev.Final {
			final = ev
		}
		return nil
	})
	sj.eventsS = time.Since(t).Seconds()
	tr.end(sp)
	if err != nil {
		return sj, fmt.Errorf("events for %s: %w", info.ID, err)
	}
	if final.Status != hyperpraw.JobDone {
		return sj, fmt.Errorf("job %s ended %s: %s", info.ID, final.Status, final.Error)
	}
	sp = tr.begin("client.result", parent, job)
	t = time.Now()
	sj.res, err = cli.Result(ctx, info.ID)
	sj.resultS = time.Since(t).Seconds()
	tr.end(sp)
	if err != nil {
		return sj, fmt.Errorf("result for %s: %w", info.ID, err)
	}
	sj.info = info
	return sj, nil
}

// countingTransport limits connections per host and counts submit round
// trips, so the ledger can report client retries.
type countingTransport struct {
	base    *http.Transport
	submits atomic.Int64
}

func newCountingTransport(conns int) *countingTransport {
	return &countingTransport{base: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}}
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodPost && r.URL.Path == "/v1/partition" {
		t.submits.Add(1)
	}
	return t.base.RoundTrip(r)
}

func (t *countingTransport) CloseIdleConnections() { t.base.CloseIdleConnections() }

// promSample is one series of a Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape fetches and parses url's /metrics.
func scrape(ctx context.Context, url string) ([]promSample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", url, resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// parseProm parses the subset of the text exposition format the tiers
// write: `name{k="v",...} value` lines and # comments.
func parseProm(r io.Reader) ([]promSample, error) {
	var out []promSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s := promSample{labels: map[string]string{}}
		rest := line
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				return nil, fmt.Errorf("bad series %q", line)
			}
			s.name = line[:i]
			for _, kv := range splitLabels(line[i+1 : j]) {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("bad label %q in %q", kv, line)
				}
				uq, err := strconv.Unquote(v)
				if err != nil {
					return nil, fmt.Errorf("bad label value %q in %q", v, line)
				}
				s.labels[k] = uq
			}
			rest = strings.TrimSpace(line[j+1:])
		} else {
			name, val, ok := strings.Cut(line, " ")
			if !ok {
				return nil, fmt.Errorf("bad sample %q", line)
			}
			s.name, rest = name, val
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("no value in %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("bad value in %q: %w", line, err)
		}
		s.value = v
		out = append(out, s)
	}
	return out, sc.Err()
}

// splitLabels splits k="v",k2="v2" at commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	start, inQ := 0, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			inQ = !inQ
		case ',':
			if !inQ {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// sumSeries adds every sample of name whose labels include match.
func sumSeries(samples []promSample, name string, match map[string]string) float64 {
	total := 0.0
	for _, s := range samples {
		if s.name != name {
			continue
		}
		ok := true
		for k, v := range match {
			if s.labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			total += s.value
		}
	}
	return total
}

// tierMetrics scrapes the gateway and both backends.
type tierMetrics struct {
	gateway  []promSample
	backends []promSample // both backends' samples together
}

func (c *cluster) scrapeAll(ctx context.Context) (tierMetrics, error) {
	var tm tierMetrics
	var err error
	if tm.gateway, err = scrape(ctx, c.gwURL); err != nil {
		return tm, err
	}
	for _, b := range c.backends {
		s, err := scrape(ctx, b.url)
		if err != nil {
			return tm, err
		}
		tm.backends = append(tm.backends, s...)
	}
	return tm, nil
}

// delta is after-before for one summed series on one tier.
func delta(before, after []promSample, name string, match map[string]string) float64 {
	return sumSeries(after, name, match) - sumSeries(before, name, match)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// tempDir makes a fresh directory under the run's output directory.
func tempDir(base, prefix string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	d, err := os.MkdirTemp(base, prefix)
	if err != nil {
		return "", err
	}
	return d, nil
}
