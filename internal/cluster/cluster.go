package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lzssfpga/internal/resilience"
	"lzssfpga/internal/server"
	"lzssfpga/internal/server/client"
)

// ErrNoBackends is wrapped by Do when, at some attempt, no backend was
// routable at all (every member ejected, down, draining, or breaker-
// rejected). It is a retryable condition inside the attempt budget —
// a later attempt rescans after the backoff.
var ErrNoBackends = errors.New("cluster: no routable backend")

// BackendSpec addresses one lzssd backend: the framed-TCP front that
// carries requests, and optionally the HTTP front used for active
// health probes. Without an HTTP address the member is gated passively
// only (transport failures and busy/draining replies).
type BackendSpec struct {
	TCP  string
	HTTP string
}

func (b BackendSpec) String() string {
	if b.HTTP == "" {
		return b.TCP
	}
	return b.TCP + "/" + b.HTTP
}

// ParseBackends reads the -backends flag format: comma-separated
// members, each "tcphost:port" or "tcphost:port/httphost:port".
func ParseBackends(s string) ([]BackendSpec, error) {
	var specs []BackendSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		tcp, http, _ := strings.Cut(part, "/")
		if tcp == "" {
			return nil, fmt.Errorf("cluster: backend %q has no TCP address", part)
		}
		specs = append(specs, BackendSpec{TCP: tcp, HTTP: http})
	}
	if len(specs) == 0 {
		return nil, errors.New("cluster: no backends")
	}
	return specs, nil
}

// Config sizes the routing tier. The zero value of every field is
// usable; only Backends is required.
type Config struct {
	// Backends is the fixed member fleet (at least one).
	Backends []BackendSpec
	// MaxResp caps one response payload read from a backend (0 selects
	// 1 GiB); DialTimeout bounds one backend dial (0 selects 1s).
	MaxResp     int
	DialTimeout time.Duration

	// Retry bounds the per-request attempt budget: MaxRetries extra
	// attempts after the first, waiting Retry.Delay (the resilience
	// backoff shape: doubling, capped, jittered) between attempts. The
	// zero value selects 3 retries, 5ms base, 250ms cap, 20% jitter.
	Retry resilience.Policy

	// BreakerThreshold is the consecutive-failure count that trips a
	// member's breaker (0 selects 3); BreakerOpenFor the first open
	// interval (0 selects 500ms), doubling per re-open up to
	// BreakerMaxOpen (0 selects 5s).
	BreakerThreshold int
	BreakerOpenFor   time.Duration
	BreakerMaxOpen   time.Duration

	// ProbeInterval is the active health-probe period for members with
	// an HTTP address (0 selects 250ms, negative disables probing);
	// ProbeTimeout bounds one probe (0 selects ProbeInterval).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration

	// now is the clock seam for breaker tests.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MaxResp <= 0 {
		c.MaxResp = 1 << 30
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = time.Second
	}
	if c.Retry == (resilience.Policy{}) {
		c.Retry = resilience.Policy{
			MaxRetries:  3,
			BaseBackoff: 5 * time.Millisecond,
			MaxBackoff:  250 * time.Millisecond,
			JitterFrac:  0.2,
		}
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerOpenFor <= 0 {
		c.BreakerOpenFor = 500 * time.Millisecond
	}
	if c.BreakerMaxOpen <= 0 {
		c.BreakerMaxOpen = 5 * time.Second
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.ProbeInterval
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// health is a member's last observed state.
type health int32

const (
	healthUnknown health = iota // never observed; assumed routable
	healthServing
	healthDraining
	healthDown
)

func (h health) String() string {
	switch h {
	case healthServing:
		return "serving"
	case healthDraining:
		return "draining"
	case healthDown:
		return "down"
	default:
		return "unknown"
	}
}

// member is one backend's routing state: its breaker, its health as
// last observed (actively or passively), its multiplexed connection,
// and the drain-orchestration flags.
type member struct {
	spec BackendSpec
	hc   *client.HTTP // nil without an HTTP address
	br   *breaker

	health   atomic.Int32
	ejected  atomic.Bool // rolling drain: out of the rotation
	awaiting atomic.Bool // drained; readmit when a probe sees serving
	inflight atomic.Int64

	mu   sync.Mutex
	conn *client.Mux
}

func (m *member) setHealth(h health) { m.health.Store(int32(h)) }
func (m *member) getHealth() health  { return health(m.health.Load()) }

// routable is the health gate alone (the breaker votes separately, at
// attempt time, because allow has side effects).
func (m *member) routable() bool {
	if m.ejected.Load() {
		return false
	}
	switch m.getHealth() {
	case healthDraining, healthDown:
		return false
	}
	return true
}

// getConn returns the member's multiplexed connection, dialing a fresh
// one when there is none or the previous one was poisoned.
func (m *member) getConn(cfg *Config) (*client.Mux, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.conn != nil && !m.conn.Poisoned() {
		return m.conn, nil
	}
	if m.conn != nil {
		m.conn.Close() //nolint:errcheck
		m.conn = nil
	}
	conn, err := client.DialMuxTimeout(m.spec.TCP, cfg.MaxResp, cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	if k := cObs.Load(); k != nil {
		k.connsDialed.Inc()
	}
	m.conn = conn
	return conn, nil
}

// closeConn tears down the member's connection (drain, shutdown).
func (m *member) closeConn() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.conn != nil {
		m.conn.Close() //nolint:errcheck
		m.conn = nil
	}
}

// Cluster routes compression requests across the backend fleet.
type Cluster struct {
	cfg     Config
	members []*member
	ring    *ring

	rmu sync.Mutex
	rng *rand.Rand

	stop   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
}

// New builds the routing tier and starts the active health-probe loop
// (when probing is enabled and any member has an HTTP address).
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: no backends configured")
	}
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Retry.Seed)),
		stop: make(chan struct{}),
	}
	addrs := make([]string, len(cfg.Backends))
	for i, spec := range cfg.Backends {
		addrs[i] = spec.TCP
		m := &member{spec: spec}
		if spec.HTTP != "" {
			m.hc = client.NewHTTP(spec.HTTP)
		}
		m.br = newBreaker(
			breakerConfig{threshold: cfg.BreakerThreshold, openFor: cfg.BreakerOpenFor, maxOpen: cfg.BreakerMaxOpen},
			cfg.now,
			func(from, to BreakerState) { c.onBreaker(from, to) },
		)
		c.members = append(c.members, m)
	}
	c.ring = newRing(addrs, vnodes)
	if k := cObs.Load(); k != nil {
		k.backends.Set(float64(len(c.members)))
	}
	c.recount()
	probe := false
	for _, m := range c.members {
		if m.hc != nil {
			probe = true
		}
	}
	if probe && cfg.ProbeInterval > 0 {
		c.wg.Add(1)
		go c.probeLoop()
	}
	return c, nil
}

// Close stops probing and tears down every backend connection.
func (c *Cluster) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	close(c.stop)
	c.wg.Wait()
	for _, m := range c.members {
		m.closeConn()
	}
	return nil
}

// Members returns the configured backend count.
func (c *Cluster) Members() int { return len(c.members) }

// Live returns how many members are currently routable with a breaker
// that counts them live (see breaker.live) — the cluster_backends_live
// gauge's value.
func (c *Cluster) Live() int {
	live := 0
	for _, m := range c.members {
		if m.routable() && m.br.live() {
			live++
		}
	}
	return live
}

// onBreaker feeds breaker transitions into the metrics family. It runs
// outside the breaker lock.
func (c *Cluster) onBreaker(_, to BreakerState) {
	if k := cObs.Load(); k != nil {
		switch to {
		case BreakerOpen:
			k.breakerOpens.Inc()
		case BreakerHalfOpen:
			k.breakerProbes.Inc()
		case BreakerClosed:
			k.breakerCloses.Inc()
		}
	}
	c.recount()
}

// recount refreshes the live-members gauge.
func (c *Cluster) recount() {
	if k := cObs.Load(); k != nil {
		k.backendsLive.Set(float64(c.Live()))
	}
}

// Compress round-trips data through the fleet and returns the zlib
// stream.
func (c *Cluster) Compress(ctx context.Context, data []byte) ([]byte, error) {
	out, _, err := c.DoDict(ctx, server.OpCompress, data, "")
	return out, err
}

// CompressDict is Compress negotiating the named preset dictionary on
// whichever backend serves the request (built-in dictionaries are
// byte-identical fleet-wide, so any member resolves the same bytes).
func (c *Cluster) CompressDict(ctx context.Context, data []byte, dictID string) ([]byte, error) {
	out, _, err := c.DoDict(ctx, server.OpCompress, data, dictID)
	return out, err
}

// Decompress round-trips a zlib stream through the fleet and returns
// the raw bytes.
func (c *Cluster) Decompress(ctx context.Context, z []byte) ([]byte, error) {
	out, _, err := c.DoDict(ctx, server.OpDecompress, z, "")
	return out, err
}

// DecompressDict is Decompress for a stream compressed against the
// named preset dictionary.
func (c *Cluster) DecompressDict(ctx context.Context, z []byte, dictID string) ([]byte, error) {
	out, _, err := c.DoDict(ctx, server.OpDecompress, z, dictID)
	return out, err
}

// DoDict routes one request, carrying dictID in the wire dict field (""
// sends a plain request): the ring's preference order for the payload's
// key, walked member by member, skipping unhealthy members and members
// whose breaker rejects, retrying retryable failures (poisoned
// connections, dial failures, busy and draining rejections) on the
// next alternate after a capped jittered backoff — up to
// Retry.MaxRetries extra attempts. Deterministic failures (corrupt
// input, over-cap payloads) return immediately. It also returns the
// serving backend's trace ID for the winning attempt ("" when no
// attempt got far enough to be traced). The dictionary ID is folded
// into the routing key: the same (payload, dictionary) pair prefers the
// same backend, so per-backend result caches see each dictionary
// variant consistently.
func (c *Cluster) DoDict(ctx context.Context, op byte, payload []byte, dictID string) ([]byte, string, error) {
	if k := cObs.Load(); k != nil {
		k.requests.Inc()
	}
	key := hashKey(payload)
	for i := 0; i < len(dictID); i++ {
		key = key*1099511628211 ^ uint64(dictID[i])
	}
	order := c.ring.order(key)
	attempts := c.cfg.Retry.MaxRetries + 1
	cursor := 0
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if k := cObs.Load(); k != nil {
				k.retries.Inc()
			}
			if err := sleepCtx(ctx, c.delay(attempt-1)); err != nil {
				return nil, "", fmt.Errorf("cluster: %w (last backend error: %w)", err, lastErr)
			}
		}
		m := c.next(order, &cursor)
		if m == nil {
			lastErr = fmt.Errorf("%w (%d members)", ErrNoBackends, len(c.members))
			continue
		}
		out, traceID, err, retryable := c.try(ctx, m, op, payload, dictID)
		if err == nil {
			return out, traceID, nil
		}
		if ctx.Err() != nil {
			return nil, "", fmt.Errorf("cluster: %w (last backend error: %w)", ctx.Err(), err)
		}
		if !retryable {
			return nil, traceID, err
		}
		lastErr = err
	}
	if k := cObs.Load(); k != nil {
		k.exhausted.Inc()
	}
	return nil, "", fmt.Errorf("cluster: %d attempts exhausted: %w: %w", attempts, resilience.ErrBudgetExhausted, lastErr)
}

// next scans the preference order from *cursor for the first member
// that is routable and whose breaker admits a request; nil when a full
// lap finds none.
func (c *Cluster) next(order []int, cursor *int) *member {
	for i := 0; i < len(order); i++ {
		m := c.members[order[(*cursor+i)%len(order)]]
		if !m.routable() {
			continue
		}
		if !m.br.allow() {
			continue
		}
		*cursor = (*cursor + i + 1) % len(order)
		return m
	}
	return nil
}

// delay is the jittered inter-attempt backoff (resilience shape).
func (c *Cluster) delay(round int) time.Duration {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	return c.cfg.Retry.Delay(c.rng, round)
}

// try runs one attempt against m and classifies the outcome: breaker
// vote, passive health observation, and whether the failure is worth
// an alternate.
func (c *Cluster) try(ctx context.Context, m *member, op byte, payload []byte, dictID string) (out []byte, traceID string, err error, retryable bool) {
	conn, err := m.getConn(&c.cfg)
	if err != nil {
		// Can't even dial: down until a probe says otherwise. A member
		// without a probe address keeps its health — there would be no
		// path back — and relies on the breaker's half-open cycle.
		if m.hc != nil {
			m.setHealth(healthDown)
		}
		m.br.failure()
		c.recount()
		return nil, "", fmt.Errorf("cluster: dialing %s: %w", m.spec.TCP, err), true
	}
	m.inflight.Add(1)
	defer m.inflight.Add(-1)
	out, traceID, err = conn.DoDict(ctx, op, payload, dictID)
	switch {
	case err == nil:
		m.br.success()
		if m.getHealth() != healthServing && !m.awaiting.Load() {
			m.setHealth(healthServing)
			c.recount()
		}
		return out, traceID, nil, false
	case errors.Is(err, client.ErrConnPoisoned):
		// Transport-level teardown: every in-flight request on that
		// conn got this same retryable error; the next attempt dials
		// fresh.
		if k := cObs.Load(); k != nil {
			k.connsPoisoned.Inc()
		}
		m.br.failure()
		c.recount()
		return nil, traceID, err, true
	case errors.Is(err, server.ErrDraining):
		// Passive drain observation: out of rotation until a probe
		// readmits. Probe-less members keep their health and let the
		// breaker's half-open cycle retime them instead.
		if m.hc != nil {
			m.setHealth(healthDraining)
		}
		m.br.failure()
		c.recount()
		return nil, traceID, err, true
	case errors.Is(err, server.ErrBusy):
		m.br.failure()
		c.recount()
		return nil, traceID, err, true
	case ctx.Err() != nil && errors.Is(err, ctx.Err()):
		// The caller's deadline, not the backend's fault — no breaker
		// verdict either way. But if this request held the half-open
		// probe slot it must release it, or the breaker stays wedged
		// with probing set and the member is unroutable forever.
		m.br.cancelProbe()
		return nil, traceID, err, false
	default:
		// In-band deterministic rejection (corrupt input, over-cap
		// payload, server-side internal error): the backend answered,
		// so it is alive, and an alternate would refuse the same way.
		m.br.success()
		return nil, traceID, err, false
	}
}

// probeLoop drives the active health probes.
func (c *Cluster) probeLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.probeOnce()
		}
	}
}

// probeOnce probes every member that has an HTTP address and folds the
// results into membership: serving (and readmission after a drain),
// draining, or down.
func (c *Cluster) probeOnce() {
	for _, m := range c.members {
		if m.hc == nil {
			continue
		}
		if k := cObs.Load(); k != nil {
			k.probes.Inc()
		}
		ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
		st, err := m.hc.Health(ctx)
		cancel()
		switch {
		case err != nil:
			if k := cObs.Load(); k != nil {
				k.probeFailures.Inc()
			}
			m.setHealth(healthDown)
		case st.State == "draining":
			m.setHealth(healthDraining)
		default:
			m.setHealth(healthServing)
			if m.awaiting.CompareAndSwap(true, false) {
				// The drained member is back and serving: readmit with
				// a clean slate.
				m.ejected.Store(false)
				m.br.success()
			}
		}
	}
	c.recount()
}

// DrainOne orchestrates a zero-downtime drain of member i: eject it
// from the rotation, wait for its in-flight requests to finish, close
// its connection, then run drainFn (SIGTERM the process, call
// Shutdown, ...). The member stays ejected until an active probe sees
// it serving again (awaiting-restart readmission); without an HTTP
// probe address it is readmitted as soon as drainFn returns.
func (c *Cluster) DrainOne(ctx context.Context, i int, drainFn func(ctx context.Context, i int, spec BackendSpec) error) error {
	if i < 0 || i >= len(c.members) {
		return fmt.Errorf("cluster: no member %d", i)
	}
	m := c.members[i]
	if k := cObs.Load(); k != nil {
		k.drains.Inc()
	}
	m.ejected.Store(true)
	c.recount()
	// Bleed: requests routed before the ejection finish normally.
	for m.inflight.Load() > 0 {
		if err := sleepCtx(ctx, 2*time.Millisecond); err != nil {
			m.ejected.Store(false)
			c.recount()
			return fmt.Errorf("cluster: waiting out member %d in-flight: %w", i, err)
		}
	}
	m.closeConn()
	err := drainFn(ctx, i, m.spec)
	if m.hc != nil {
		// Readmission arms only after drainFn returns: a probe that lands
		// while the drain is still in progress would see the member's
		// last pre-drain "serving" answer and readmit it before it ever
		// went down — letting RollingDrain move on with two members out
		// of rotation at once. probeOnce issues a fresh probe each tick,
		// so once awaiting is set every serving observation is current.
		m.awaiting.Store(true)
	}
	if m.hc == nil {
		// No probe path: trust the drain function's completion as the
		// restart signal.
		m.setHealth(healthUnknown)
		m.ejected.Store(false)
		m.br.success()
		c.recount()
	}
	return err
}

// RollingDrain sequences DrainOne across the whole fleet, waiting for
// each drained member to be readmitted (probe sees it serving again)
// before draining the next — at most one member out of rotation at a
// time, zero downtime overall.
func (c *Cluster) RollingDrain(ctx context.Context, drainFn func(ctx context.Context, i int, spec BackendSpec) error) error {
	for i := range c.members {
		if err := c.DrainOne(ctx, i, drainFn); err != nil {
			return err
		}
		m := c.members[i]
		for m.ejected.Load() {
			if err := sleepCtx(ctx, 5*time.Millisecond); err != nil {
				return fmt.Errorf("cluster: waiting for member %d readmission: %w", i, err)
			}
		}
	}
	return nil
}

// sleepCtx waits for d or until ctx is done, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
