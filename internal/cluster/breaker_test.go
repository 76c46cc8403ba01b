package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"lzssfpga/internal/obs"
)

// fakeClock is the breaker's time seam: tests advance it by hand.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1700000000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testBreaker(clk *fakeClock, transitions *[]string) *breaker {
	return newBreaker(
		breakerConfig{threshold: 3, openFor: 100 * time.Millisecond, maxOpen: 400 * time.Millisecond},
		clk.now,
		func(from, to BreakerState) {
			if transitions != nil {
				*transitions = append(*transitions, fmt.Sprintf("%s->%s", from, to))
			}
		},
	)
}

func TestBreakerTripsAtThreshold(t *testing.T) {
	clk := newFakeClock()
	var trans []string
	b := testBreaker(clk, &trans)

	for i := 0; i < 2; i++ {
		if !b.allow() {
			t.Fatalf("closed breaker rejected request %d", i)
		}
		b.failure()
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("after 2/3 failures: state %s, want closed", got)
	}
	if !b.allow() {
		t.Fatal("closed breaker rejected request below threshold")
	}
	b.failure()
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("after threshold failures: state %s, want open", got)
	}
	if b.allow() {
		t.Fatal("open breaker admitted a request before its interval elapsed")
	}
	want := []string{"closed->open"}
	if len(trans) != 1 || trans[0] != want[0] {
		t.Fatalf("transitions %v, want %v", trans, want)
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, nil)
	b.failure()
	b.failure()
	b.success()
	b.failure()
	b.failure()
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("streak should have reset on success; state %s", got)
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	clk := newFakeClock()
	var trans []string
	b := testBreaker(clk, &trans)
	for i := 0; i < 3; i++ {
		b.failure()
	}
	if b.allow() {
		t.Fatal("open breaker admitted a request")
	}
	clk.advance(101 * time.Millisecond)
	if !b.allow() {
		t.Fatal("expired open breaker rejected the half-open probe")
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state %s, want half-open", got)
	}
	// Only one probe at a time: everyone else waits for its outcome.
	if b.allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	b.success()
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("after successful probe: state %s, want closed", got)
	}
	if !b.allow() {
		t.Fatal("closed breaker rejected a request")
	}
	want := "closed->open,open->half-open,half-open->closed"
	if got := fmt.Sprint(trans); got != fmt.Sprint([]string{"closed->open", "open->half-open", "half-open->closed"}) {
		t.Fatalf("transitions %v, want %s", got, want)
	}
}

// TestBreakerCancelProbeReleasesSlot: a half-open probe that ends with
// no verdict (caller context expired) must release the probe slot —
// otherwise probing stays set forever and the breaker never admits
// another request (the member would be unroutable until restart).
func TestBreakerCancelProbeReleasesSlot(t *testing.T) {
	clk := newFakeClock()
	var trans []string
	b := testBreaker(clk, &trans)
	for i := 0; i < 3; i++ {
		b.failure()
	}
	clk.advance(101 * time.Millisecond)
	if !b.allow() {
		t.Fatal("expired open breaker rejected the half-open probe")
	}
	// The probe's context expires: no success, no failure.
	b.cancelProbe()
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("cancelled probe changed state to %s, want half-open", got)
	}
	if !b.allow() {
		t.Fatal("breaker wedged: no new probe admitted after a cancelled one")
	}
	b.success()
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("replacement probe's success: state %s, want closed", got)
	}
	want := []string{"closed->open", "open->half-open", "half-open->closed"}
	if fmt.Sprint(trans) != fmt.Sprint(want) {
		t.Fatalf("transitions %v, want %v (cancelProbe must not fire one)", trans, want)
	}
}

func TestBreakerReopenDoublesIntervalCapped(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, nil)
	for i := 0; i < 3; i++ {
		b.failure()
	}
	// Fail the probe: interval doubles to 200ms.
	clk.advance(101 * time.Millisecond)
	if !b.allow() {
		t.Fatal("no half-open probe admitted")
	}
	b.failure()
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("failed probe should re-open; state %s", got)
	}
	clk.advance(101 * time.Millisecond)
	if b.allow() {
		t.Fatal("re-opened breaker admitted a probe before its doubled interval elapsed")
	}
	clk.advance(100 * time.Millisecond)
	if !b.allow() {
		t.Fatal("re-opened breaker rejected the probe after its doubled interval")
	}
	// Fail through the cap: 400ms (cap), then stays 400ms.
	b.failure()
	clk.advance(401 * time.Millisecond)
	if !b.allow() {
		t.Fatal("probe rejected after the capped interval")
	}
	b.failure()
	clk.advance(401 * time.Millisecond)
	if !b.allow() {
		t.Fatal("interval exceeded its cap")
	}
	// Success resets the interval to the base: next trip opens for 100ms.
	b.success()
	for i := 0; i < 3; i++ {
		b.failure()
	}
	clk.advance(101 * time.Millisecond)
	if !b.allow() {
		t.Fatal("close did not reset the open interval")
	}
}

func TestBreakerFailureWhileOpenIsNoOp(t *testing.T) {
	clk := newFakeClock()
	var trans []string
	b := testBreaker(clk, &trans)
	for i := 0; i < 3; i++ {
		b.failure()
	}
	n := len(trans)
	// A request already in flight when the breaker tripped reports its
	// failure late; the open state already reflects it.
	b.failure()
	b.failure()
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state %s, want open", got)
	}
	if len(trans) != n {
		t.Fatalf("late failures fired transitions: %v", trans[n:])
	}
}

// TestLiveCountsElapsedOpenBreaker: Live, and so cluster_backends_live,
// leaves a member out while its breaker is open and counts it again
// once the open interval has elapsed, with no request to move the
// breaker to half-open: an idle fleet must not read a recovered member
// as down. The probe tick's recount carries the gauge along.
func TestLiveCountsElapsedOpenBreaker(t *testing.T) {
	reg := obs.NewRegistry()
	SetObservability(reg)
	defer SetObservability(nil)
	clk := newFakeClock()
	c := newTestCluster(t, []BackendSpec{{TCP: "127.0.0.1:1"}, {TCP: "127.0.0.1:2"}}, func(cfg *Config) {
		cfg.now = clk.now
		cfg.ProbeInterval = -1 // the test ticks the probe by hand
	})
	live := reg.Gauge(obs.ClusterBackendsLive)

	c.members[0].br.failure() // one failure trips it (threshold 1)
	if n := c.Live(); n != 1 {
		t.Fatalf("with one breaker open Live() = %d, want 1", n)
	}
	if v := live.Value(); v != 1 {
		t.Fatalf("%s = %v with one breaker open, want 1", obs.ClusterBackendsLive, v)
	}

	clk.advance(c.cfg.BreakerOpenFor)
	if got := c.members[0].br.State(); got != BreakerOpen {
		t.Fatalf("breaker %s with no traffic, want still open", got)
	}
	if n := c.Live(); n != 2 {
		t.Fatalf("open interval elapsed: Live() = %d, want 2", n)
	}
	c.probeOnce()
	if v := live.Value(); v != 2 {
		t.Fatalf("%s = %v after a probe tick, want 2", obs.ClusterBackendsLive, v)
	}
}
