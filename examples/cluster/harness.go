package main

// The chaos harness: per-case mini-clusters of real hpserve/hpgate
// subprocesses, plus the scraping and routing helpers the cases assert
// with. Every case boots exactly the topology it needs (backend flags,
// fault-injection environment, gateway tuning) so cases cannot interfere
// with one another and each one's kill/restart choreography is
// deterministic.

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hyperpraw"
	"hyperpraw/client"
	"hyperpraw/internal/gateway"
	"hyperpraw/internal/service"
	"hyperpraw/internal/telemetry"
)

// T is the per-case context handed to every chaos case: deadline-bound
// context plus fail/log helpers that prefix output with the case ID. A
// failed check ends the case, whose deferred cleanup (processes, store
// directories) then runs, and runCase reports the failure, after which the
// suite exits non-zero — that is what CI keys off.
type T struct {
	Ctx context.Context
	ID  string
}

// caseFailed is the panic value Fatalf ends a case with. Like
// testing.T.FailNow, Fatalf must be called from the case's own goroutine.
type caseFailed struct{}

func (t *T) Fatalf(format string, args ...any) {
	log.Printf("[%s] FAIL: %s", t.ID, fmt.Sprintf(format, args...))
	panic(caseFailed{})
}

// runCase runs one case and reports whether it passed. A Fatalf unwinds
// the case through its deferred cleanup before landing here; any other
// panic does too, and is then re-raised.
func runCase(cc chaosCase, t *T) (passed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(caseFailed); !ok {
				panic(r)
			}
			passed = false
		}
	}()
	cc.Run(t)
	return true
}

func (t *T) Logf(format string, args ...any) {
	log.Printf("[%s] %s", t.ID, fmt.Sprintf(format, args...))
}

// tinyHMetis returns a small hypergraph in hMetis text whose pin structure
// varies with i, giving the cases distinct deterministic fingerprints.
func tinyHMetis(i int) string {
	return fmt.Sprintf("3 8\n1 2 %d\n3 4 %d\n5 6 7 8\n", 3+i%6, []int{5, 6, 7, 8, 1, 2}[i/6%6])
}

func wire(i int) hyperpraw.PartitionRequest {
	return hyperpraw.PartitionRequest{
		Algorithm: "aware",
		Machine:   hyperpraw.MachineSpec{Kind: "archer", Cores: 4},
		HMetis:    tinyHMetis(i),
	}
}

func fingerprintKey(t *T, w hyperpraw.PartitionRequest) string {
	req, err := service.ParseRequest(w)
	if err != nil {
		t.Fatalf("parsing test wire: %v", err)
	}
	return req.FingerprintKey()
}

// wiresCovering picks perBackend wires routed to each backend by scanning
// the wire variants against the gateway's rendezvous order, so fan-out
// checks provably spread across the whole backend set no matter which
// ports the cluster runs on.
func wiresCovering(t *T, urls []string, perBackend int) []hyperpraw.PartitionRequest {
	need := make(map[string]int, len(urls))
	for _, u := range urls {
		need[u] = perBackend
	}
	var out []hyperpraw.PartitionRequest
	for i := 0; i < 36 && len(out) < perBackend*len(urls); i++ {
		w := wire(i)
		top := gateway.RendezvousOrder(urls, fingerprintKey(t, w))[0]
		if need[top] > 0 {
			need[top]--
			out = append(out, w)
		}
	}
	if len(out) != perBackend*len(urls) {
		t.Fatalf("only %d of %d wires cover %v", len(out), perBackend*len(urls), urls)
	}
	return out
}

// primaryWires returns n distinct wires whose rendezvous primary is url.
func primaryWires(t *T, urls []string, url string, n int) []hyperpraw.PartitionRequest {
	var out []hyperpraw.PartitionRequest
	for i := 0; i < 36 && len(out) < n; i++ {
		w := wire(i)
		if gateway.RendezvousOrder(urls, fingerprintKey(t, w))[0] == url {
			out = append(out, w)
		}
	}
	if len(out) < n {
		t.Fatalf("only %d of %d wires rank %s first", len(out), n, url)
	}
	return out
}

// nextPort hands out listen ports; mini-clusters never share one.
var portCounter int

func allocPort() int {
	portCounter++
	return portCounter
}

// backendSpec configures one backend of a mini-cluster.
type backendSpec struct {
	args []string // extra hpserve flags (workers default to 2)
	env  []string // extra environment, e.g. HYPERPRAW_FAULTPOINTS=...
}

// clusterSpec configures one case's mini-cluster.
type clusterSpec struct {
	backends    []backendSpec
	gatewayArgs []string // extra hpgate flags
	noGateway   bool     // cases that drive a backend directly
	announce    bool     // boot the gateway with no -backends; backends self-register via -announce
}

// backendProc is one running (or killed) hpserve with everything needed to
// restart it in place.
type backendProc struct {
	url  string
	addr string
	args []string
	env  []string
	cmd  *exec.Cmd
}

// cluster is one case's running topology.
type cluster struct {
	t          *T
	GatewayURL string
	Backends   []*backendProc
	gwCmd      *exec.Cmd
	gwArgs     []string // the gateway's full argv, for RestartGateway
}

func startProc(name string, env []string, args ...string) (*exec.Cmd, error) {
	cmd := exec.Command(name, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if len(env) > 0 {
		cmd.Env = append(os.Environ(), env...)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	return cmd, nil
}

// startCluster boots the spec's backends (and gateway, unless noGateway)
// and waits for every tier to answer /healthz. In announce mode the
// gateway boots first with an empty member table, every backend
// self-registers against it (-announce/-advertise), and startCluster
// additionally waits for the member table to converge on the full fleet.
func startCluster(t *T, spec clusterSpec) *cluster {
	c := &cluster{t: t}
	// The caller defers Close only once this returns; a start that fails
	// part-way stops what it already started.
	defer func() {
		if r := recover(); r != nil {
			c.Close()
			panic(r)
		}
	}()
	if spec.announce && !spec.noGateway {
		c.startGateway(nil, spec.gatewayArgs)
	}
	for _, bs := range spec.backends {
		addr := fmt.Sprintf("127.0.0.1:%d", allocPort())
		args := append([]string{"-addr", addr, "-workers", "2"}, bs.args...)
		if spec.announce {
			args = append(args,
				"-announce", c.GatewayURL,
				"-advertise", "http://"+addr,
				"-announce-ttl", "2s",
			)
		}
		cmd, err := startProc(*hpserveBin, bs.env, args...)
		if err != nil {
			t.Fatalf("%v", err)
		}
		b := &backendProc{url: "http://" + addr, addr: addr, args: args, env: bs.env, cmd: cmd}
		c.Backends = append(c.Backends, b)
	}
	if !spec.announce && !spec.noGateway {
		var urls []string
		for _, b := range c.Backends {
			urls = append(urls, b.url)
		}
		c.startGateway(urls, spec.gatewayArgs)
	}
	for _, u := range c.allURLs() {
		c.waitHealthy(u)
	}
	if spec.announce && !spec.noGateway {
		c.waitMembers(len(spec.backends))
	}
	return c
}

// startGateway boots the gateway fronting seeds (empty = announce mode)
// and records its argv so RestartGateway can bring it back identically.
func (c *cluster) startGateway(seeds, extra []string) {
	addr := fmt.Sprintf("127.0.0.1:%d", allocPort())
	args := []string{"-addr", addr, "-health-interval", "150ms"}
	if len(seeds) > 0 {
		args = append(args, "-backends", strings.Join(seeds, ","))
	}
	args = append(args, extra...)
	cmd, err := startProc(*hpgateBin, nil, args...)
	if err != nil {
		c.t.Fatalf("%v", err)
	}
	c.gwCmd = cmd
	c.gwArgs = args
	c.GatewayURL = "http://" + addr
}

// KillGateway SIGKILLs the gateway — the control-plane crash primitive.
func (c *cluster) KillGateway() {
	if err := c.gwCmd.Process.Kill(); err != nil {
		c.t.Fatalf("killing gateway: %v", err)
	}
	c.gwCmd.Wait() //nolint:errcheck
	c.t.Logf("killed gateway %s", c.GatewayURL)
}

// RestartGateway boots the killed gateway again on its original address
// with its original flags, then waits for it to answer /healthz.
func (c *cluster) RestartGateway() {
	cmd, err := startProc(*hpgateBin, nil, c.gwArgs...)
	if err != nil {
		c.t.Fatalf("restarting gateway: %v", err)
	}
	c.gwCmd = cmd
	c.waitHealthy(c.GatewayURL)
	c.t.Logf("restarted gateway %s", c.GatewayURL)
}

// waitMembers polls the gateway's member table until it holds exactly n
// healthy members, failing the case on deadline.
func (c *cluster) waitMembers(n int) {
	cl := c.Client()
	deadline := time.Now().Add(15 * time.Second)
	var last hyperpraw.MemberList
	for time.Now().Before(deadline) {
		ml, err := cl.Members(c.t.Ctx)
		if err == nil {
			last = ml
			healthy := 0
			for _, m := range ml.Members {
				if m.Healthy {
					healthy++
				}
			}
			if len(ml.Members) == n && healthy == n {
				return
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	c.t.Fatalf("member table never converged to %d healthy members; last %+v", n, last)
}

func (c *cluster) allURLs() []string {
	urls := make([]string, 0, len(c.Backends)+1)
	if c.GatewayURL != "" {
		urls = append(urls, c.GatewayURL)
	}
	for _, b := range c.Backends {
		urls = append(urls, b.url)
	}
	return urls
}

// Close kills every remaining process. Cases that already killed a
// backend are fine: a dead process is skipped.
func (c *cluster) Close() {
	procs := []*exec.Cmd{c.gwCmd}
	for _, b := range c.Backends {
		procs = append(procs, b.cmd)
	}
	for _, p := range procs {
		if p != nil && p.Process != nil {
			p.Process.Kill() //nolint:errcheck
			p.Wait()         //nolint:errcheck
		}
	}
}

// Client returns a client against the gateway.
func (c *cluster) Client() *client.Client {
	return client.New(c.GatewayURL, nil)
}

// backend finds the backendProc serving url.
func (c *cluster) backend(url string) *backendProc {
	for _, b := range c.Backends {
		if b.url == url {
			return b
		}
	}
	c.t.Fatalf("no backend %q in this cluster", url)
	return nil
}

// Term SIGTERMs the backend serving url and waits for it to exit — the
// graceful-shutdown primitive: the node's announcer deregisters from the
// gateway, which synchronously drains its jobs to peers, before the
// process finishes winding down.
func (c *cluster) Term(url string) {
	b := c.backend(url)
	if err := b.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		c.t.Fatalf("terminating %s: %v", url, err)
	}
	b.cmd.Wait() //nolint:errcheck
	c.t.Logf("terminated backend %s", url)
}

// Kill SIGKILLs the backend serving url — the crash primitive.
func (c *cluster) Kill(url string) {
	b := c.backend(url)
	if err := b.cmd.Process.Kill(); err != nil {
		c.t.Fatalf("killing %s: %v", url, err)
	}
	b.cmd.Wait() //nolint:errcheck
	c.t.Logf("killed backend %s", url)
}

// Restart boots the killed backend again on its original address, with
// env overriding the original environment when non-nil (so a faultpoint
// armed for the first life can be disarmed for the second).
func (c *cluster) Restart(url string, env []string) {
	b := c.backend(url)
	if env != nil {
		b.env = env
	}
	cmd, err := startProc(*hpserveBin, b.env, b.args...)
	if err != nil {
		c.t.Fatalf("restarting %s: %v", url, err)
	}
	b.cmd = cmd
	c.waitHealthy(url)
	c.t.Logf("restarted backend %s", url)
}

func (c *cluster) waitHealthy(url string) {
	cl := client.New(url, nil)
	for {
		if _, err := cl.Health(c.t.Ctx); err == nil {
			return
		}
		select {
		case <-c.t.Ctx.Done():
			c.t.Fatalf("%s never became healthy: %v", url, c.t.Ctx.Err())
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// scrapeMetrics fetches base's /metrics, fails the case if the exposition
// does not lint, and returns the body.
func scrapeMetrics(t *T, base string) string {
	req, err := http.NewRequestWithContext(t.Ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		t.Fatalf("%v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("scraping %s/metrics: %v", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s/metrics: status %d", base, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s/metrics: %v", base, err)
	}
	if errs := telemetry.LintExposition(strings.NewReader(string(body))); len(errs) != 0 {
		t.Fatalf("%s/metrics fails lint: %v", base, errs)
	}
	return string(body)
}

// metricValue returns the sample value for the exact exposed series, or 0
// when the series is absent (unincremented labeled counters never appear).
func metricValue(t *T, body, series string) float64 {
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("series %s: bad value %q", series, rest)
			}
			return v
		}
	}
	return 0
}

// backendStatus polls the gateway until cond holds for the backend at
// url, failing the case on deadline.
func backendStatus(t *T, c *client.Client, url, what string, cond func(hyperpraw.BackendStatus) bool) {
	deadline := time.Now().Add(15 * time.Second)
	var last hyperpraw.BackendStatus
	for time.Now().Before(deadline) {
		gh, err := c.GatewayHealth(t.Ctx)
		if err == nil {
			for _, b := range gh.Backends {
				if b.URL == url {
					last = b
					if cond(b) {
						return
					}
				}
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("backend %s never reached %q; last status %+v", url, what, last)
}
