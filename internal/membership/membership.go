// Package membership owns the gateway's cluster model end-to-end: a
// desired-state member table fed by registration (hpserve -announce
// self-registration with lease renewal) and by static seeding (the legacy
// -backends flag compiles into the same records), plus a reconciler that
// converges observed state — health probes, breaker state, queue depth,
// lease expiry — toward the desired set. The table publishes immutable
// epoch-stamped snapshots; routing reads a snapshot without any lock on
// the live table, so membership changes never serialise the data path.
//
// The split mirrors the agent/controller idiom: members declare
// themselves (desired state), the reconciler observes and converges
// (ejecting lease-expired members, re-admitting returners, draining
// durable members that stay down past the recovery window), and every
// consumer sees a consistent point-in-time view.
package membership

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Lifecycle events published through Config.OnEvent.
const (
	// EventRegistered: a new member announced itself (or was seeded).
	EventRegistered = "registered"
	// EventRenewed: an existing member's heartbeat renewed its lease.
	EventRenewed = "renewed"
	// EventDeregistered: a member deregistered itself (graceful shutdown)
	// or was removed by an operator.
	EventDeregistered = "deregistered"
	// EventLeaseExpired: a registered member missed its heartbeats and was
	// ejected by the reconciler.
	EventLeaseExpired = "lease_expired"
	// EventDrain: a member's jobs are being resubmitted to peers — it
	// deregistered, its lease expired, or it is durable and stayed down
	// past the recovery window.
	EventDrain = "drain"
)

// Observation is what one successful health probe saw.
type Observation struct {
	Durable  bool
	Queued   int
	QueueCap int
}

// Config tunes a Table. Zero values select the defaults noted per field.
type Config struct {
	// BreakerThreshold and BreakerCooldown configure each member's circuit
	// breaker (see Breaker).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// LeaseTTL is the default lease granted to a registration that does
	// not request one (default 10s). Static members have no lease.
	LeaseTTL time.Duration
	// RecoveryWindow is how long a durable member may stay down before the
	// reconciler drains its jobs to peers (<= 0 disables reconciler-driven
	// drains; deregistration and lease expiry still drain).
	RecoveryWindow time.Duration
	// SpillWatermark is the queue-occupancy fraction beyond which a probed
	// member counts as saturated (negative disables probe-derived
	// saturation).
	SpillWatermark float64
	// Now is the table's clock; nil selects time.Now. Tests inject a fake
	// clock to drive lease expiry deterministically.
	Now func() time.Time
	// Probe observes one member's health; nil disables probing (the
	// reconciler then only ticks breakers and expires leases). The gateway
	// injects its /healthz client call here.
	Probe func(ctx context.Context, url string) (Observation, error)
	// OnTransition receives every breaker transition (telemetry hook).
	OnTransition func(url string, from, to State)
	// OnEvent receives every membership lifecycle event (telemetry hook).
	OnEvent func(url, event string)
	// Drain is called — outside the table lock — when a member's jobs
	// should move to peers: on deregistration, on lease expiry, and when a
	// durable member stays down past RecoveryWindow.
	Drain func(url string)
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Member is one backend's record: identity and desired state (URL,
// durability, lease) plus the reconciler's observed state (breaker,
// queue occupancy, outage clock). Members are shared between snapshots —
// the snapshot fixes the set, not the state — and are internally locked.
type Member struct {
	// URL is the member's base URL; it is the member's identity.
	URL string
	// Static marks a member seeded from the -backends flag: it never
	// lease-expires and survives reconciliation until removed explicitly.
	Static bool

	br  *Breaker
	now func() time.Time
	// onTransition publishes breaker transitions (owning table's hook).
	onTransition func(url string, from, to State)

	mu sync.Mutex
	// durable is the member's last advertised durability: registration
	// spec first, then whatever /healthz probes report.
	durable bool
	// downSince is when the breaker last tripped closed -> open; the
	// recovery window is measured from it.
	downSince time.Time
	// leaseExpiry is when the member's registration lapses without a
	// heartbeat; zero for static members.
	leaseExpiry time.Time
	// queued/queueCap mirror the last probe's queue occupancy; saturated
	// is derived from them against the spill watermark, or set directly
	// by an observed 429 until the next successful probe.
	queued     int
	queueCap   int
	saturated  bool
	retryAfter int // last Retry-After hint this member attached to a 429
	// drained marks that the current outage's drain already fired, so the
	// reconciler drains once per outage; cleared when the member comes
	// back up.
	drained bool
}

// Status reports routing health: breaker closed, consecutive fails, and
// the durability flag.
func (m *Member) Status() (healthy bool, fails int, durable bool) {
	state, fails := m.br.Snapshot()
	m.mu.Lock()
	durable = m.durable
	m.mu.Unlock()
	return state == StateClosed, fails, durable
}

// BreakerState exposes the member's breaker state and failure count.
func (m *Member) BreakerState() (State, int) { return m.br.Snapshot() }

// noteTransition publishes one breaker transition and maintains the
// outage clock: downSince starts on closed->open only (half-open->open is
// the same outage continuing, not a new one), and a member coming back
// closed re-arms its drain.
func (m *Member) noteTransition(from, to State) {
	if from == to {
		return
	}
	m.mu.Lock()
	if from == StateClosed && to == StateOpen {
		m.downSince = m.now()
	}
	if to == StateClosed {
		m.drained = false
	}
	m.mu.Unlock()
	if m.onTransition != nil {
		m.onTransition(m.URL, from, to)
	}
}

// MarkDown records an observed failure against the breaker.
func (m *Member) MarkDown() { m.noteTransition(m.br.Fail()) }

// MarkUp records a successful probe or call, closing the breaker.
func (m *Member) MarkUp() { m.noteTransition(m.br.Success()) }

// MarkUpDurable re-admits the member and records whether it advertises a
// durable job store; only health probes carry that information.
func (m *Member) MarkUpDurable(durable bool) {
	m.mu.Lock()
	m.durable = durable
	m.mu.Unlock()
	m.noteTransition(m.br.Success())
}

// TickBreaker advances the breaker's open -> half-open timer; the
// reconciler calls it before each probe round.
func (m *Member) TickBreaker() { m.noteTransition(m.br.Tick()) }

// AllowProbe reports whether a health probe should be sent now.
func (m *Member) AllowProbe() bool { return m.br.AllowProbe() }

// NoteQueue folds one successful health probe's queue occupancy into the
// saturation verdict. It also clears any sticky 429-derived saturation:
// the probe is fresher evidence than the rejection.
func (m *Member) NoteQueue(queued, capacity int, watermark float64) {
	m.mu.Lock()
	m.queued, m.queueCap = queued, capacity
	m.saturated = watermark >= 0 && capacity > 0 &&
		float64(queued) >= watermark*float64(capacity)
	m.mu.Unlock()
}

// MarkSaturated records an observed 429: the member is at its admission
// limits regardless of what the last probe saw. Sticky until the next
// successful probe re-derives the verdict.
func (m *Member) MarkSaturated(retryAfter int) {
	m.mu.Lock()
	m.saturated = true
	if retryAfter > 0 {
		m.retryAfter = retryAfter
	}
	m.mu.Unlock()
}

// LoadStatus reports the member's saturation verdict and last observed
// queue length.
func (m *Member) LoadStatus() (saturated bool, queued int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.saturated, m.queued
}

// Recoverable reports whether a failed call against the member should be
// waited out rather than failed over: it advertises a durable job store
// and its outage is younger than window.
func (m *Member) Recoverable(window time.Duration) bool {
	if window <= 0 {
		return false
	}
	state, _ := m.br.Snapshot()
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.durable && state != StateClosed && m.now().Sub(m.downSince) < window
}

// LeaseRemaining reports how long until the member's lease lapses
// (0 for static members, negative when already expired).
func (m *Member) LeaseRemaining() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.leaseExpiry.IsZero() {
		return 0
	}
	return m.leaseExpiry.Sub(m.now())
}

// leaseExpired reports whether a registered member's lease has lapsed.
func (m *Member) leaseExpired(now time.Time) bool {
	if m.Static {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return now.After(m.leaseExpiry)
}

// renewLease extends the member's lease to now+ttl.
func (m *Member) renewLease(now time.Time, ttl time.Duration) {
	m.mu.Lock()
	m.leaseExpiry = now.Add(ttl)
	m.mu.Unlock()
}

// setDurableHint records a registration's durability claim. A probe's
// evidence later overrides it, but until the first probe lands the claim
// lets the recovery window engage for a freshly announced durable member.
func (m *Member) setDurableHint(durable bool) {
	m.mu.Lock()
	m.durable = durable
	m.mu.Unlock()
}

// shouldDrain decides (and latches) the reconciler's drain verdict for a
// durable member down past the recovery window: true at most once per
// outage.
func (m *Member) shouldDrain(now time.Time, window time.Duration) bool {
	state, _ := m.br.Snapshot()
	if state == StateClosed || window <= 0 {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.durable || m.drained || m.downSince.IsZero() {
		return false
	}
	if now.Sub(m.downSince) < window {
		return false
	}
	m.drained = true
	return true
}

// Snapshot is an immutable view of the member set at one epoch. The set
// is fixed; the Members' observed state keeps evolving (they are the live
// records). Routing holds a snapshot across a whole decision so the set
// cannot shift under it.
type Snapshot struct {
	// Epoch increments on every membership change (add, remove); state
	// changes on existing members do not bump it.
	Epoch   uint64
	Members []*Member // sorted by URL
	byURL   map[string]*Member
}

// Get returns the member with the given URL, if present.
func (s *Snapshot) Get(url string) (*Member, bool) {
	m, ok := s.byURL[url]
	return m, ok
}

// URLs returns the member URLs in sorted order.
func (s *Snapshot) URLs() []string {
	out := make([]string, len(s.Members))
	for i, m := range s.Members {
		out[i] = m.URL
	}
	return out
}

// Table is the desired-state member table plus its reconciler. All
// mutation goes through Register/Add/Deregister and Reconcile;
// readers take snapshots.
type Table struct {
	cfg Config

	mu      sync.Mutex
	members map[string]*Member
	epoch   uint64

	snap atomic.Pointer[Snapshot]
}

// New returns an empty Table.
func New(cfg Config) *Table {
	t := &Table{
		cfg:     cfg.withDefaults(),
		members: make(map[string]*Member),
	}
	t.snap.Store(&Snapshot{byURL: map[string]*Member{}})
	return t
}

func (t *Table) newMember(url string, static bool) *Member {
	return &Member{
		URL:          url,
		Static:       static,
		br:           NewBreaker(t.cfg.BreakerThreshold, t.cfg.BreakerCooldown),
		now:          t.cfg.Now,
		onTransition: t.cfg.OnTransition,
	}
}

// rebuildLocked bumps the epoch and publishes a fresh snapshot. Caller
// holds t.mu.
func (t *Table) rebuildLocked() {
	t.epoch++
	s := &Snapshot{
		Epoch:   t.epoch,
		Members: make([]*Member, 0, len(t.members)),
		byURL:   make(map[string]*Member, len(t.members)),
	}
	for url, m := range t.members {
		s.Members = append(s.Members, m)
		s.byURL[url] = m
	}
	sort.Slice(s.Members, func(i, k int) bool { return s.Members[i].URL < s.Members[k].URL })
	t.snap.Store(s)
}

// Snapshot returns the current epoch-stamped member set.
func (t *Table) Snapshot() *Snapshot { return t.snap.Load() }

// Get returns the live member with the given URL, if present.
func (t *Table) Get(url string) (*Member, bool) { return t.Snapshot().Get(url) }

// Add seeds a static member (idempotent); it starts healthy and never
// lease-expires. Reports whether the member was new.
func (t *Table) Add(url string) bool {
	t.mu.Lock()
	if _, ok := t.members[url]; ok {
		t.mu.Unlock()
		return false
	}
	t.members[url] = t.newMember(url, true)
	t.rebuildLocked()
	t.mu.Unlock()
	t.event(url, EventRegistered)
	return true
}

// Register records (or renews) an announced member: a new URL joins the
// set with a lease of ttl (<= 0 selects Config.LeaseTTL), an existing one
// has its lease renewed and its durability hint refreshed. Registering a
// URL that exists as a static member renews nothing but updates the hint
// — the static record already never expires.
func (t *Table) Register(url string, durable bool, ttl time.Duration) (m *Member, renewed bool) {
	if ttl <= 0 {
		ttl = t.cfg.LeaseTTL
	}
	now := t.cfg.Now()
	t.mu.Lock()
	m, renewed = t.members[url]
	if !renewed {
		m = t.newMember(url, false)
		t.members[url] = m
		t.rebuildLocked()
	}
	t.mu.Unlock()
	m.setDurableHint(durable)
	if !m.Static {
		m.renewLease(now, ttl)
	}
	if renewed {
		t.event(url, EventRenewed)
	} else {
		t.event(url, EventRegistered)
	}
	return m, renewed
}

// Deregister removes a member (graceful shutdown or operator action) and
// drains its jobs to peers. Reports whether the member existed.
func (t *Table) Deregister(url string) bool {
	if !t.remove(url) {
		return false
	}
	t.event(url, EventDeregistered)
	t.drain(url)
	return true
}

// remove drops a member from the set, reporting whether it was present.
func (t *Table) remove(url string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.members[url]; !ok {
		return false
	}
	delete(t.members, url)
	t.rebuildLocked()
	return true
}

func (t *Table) event(url, event string) {
	if t.cfg.OnEvent != nil {
		t.cfg.OnEvent(url, event)
	}
}

func (t *Table) drain(url string) {
	t.event(url, EventDrain)
	if t.cfg.Drain != nil {
		t.cfg.Drain(url)
	}
}

// Reconcile runs one convergence pass: expire leases (ejecting and
// draining lapsed members), tick breakers, probe every probeable member
// concurrently, and drain durable members that have stayed down past the
// recovery window. The gateway's health loop calls it periodically; tests
// call it directly.
func (t *Table) Reconcile(ctx context.Context) {
	now := t.cfg.Now()
	snap := t.Snapshot()

	// Desired-state pass: a member whose lease lapsed is no longer
	// desired; eject it and move its jobs before wasting a probe on it.
	for _, m := range snap.Members {
		if m.leaseExpired(now) {
			if t.remove(m.URL) {
				t.event(m.URL, EventLeaseExpired)
				t.drain(m.URL)
			}
		}
	}

	// Observation pass over the post-expiry set.
	snap = t.Snapshot()
	var wg sync.WaitGroup
	for _, m := range snap.Members {
		wg.Add(1)
		go func(m *Member) {
			defer wg.Done()
			// An open breaker withholds the probe until its cooldown has
			// elapsed (tick flips it half-open); with the default zero
			// cooldown every probe goes through, as before.
			m.TickBreaker()
			if !m.AllowProbe() || t.cfg.Probe == nil {
				return
			}
			obs, err := t.cfg.Probe(ctx, m.URL)
			if err != nil {
				m.MarkDown()
			} else {
				m.MarkUpDurable(obs.Durable)
				m.NoteQueue(obs.Queued, obs.QueueCap, t.cfg.SpillWatermark)
			}
		}(m)
	}
	wg.Wait()

	// Convergence pass: a durable member that stayed down past the
	// recovery window is presumed gone; stop waiting and move its jobs.
	// (The member record stays — if it returns, a probe re-admits it.)
	for _, m := range snap.Members {
		if m.shouldDrain(t.cfg.Now(), t.cfg.RecoveryWindow) {
			t.drain(m.URL)
		}
	}
}

// Len reports the current member count.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.members)
}
