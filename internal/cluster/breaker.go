package cluster

import (
	"sync"
	"time"
)

// BreakerState is one of the circuit breaker's three states.
type BreakerState int32

const (
	// BreakerClosed passes traffic and counts consecutive failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects traffic until its interval elapses.
	BreakerOpen
	// BreakerHalfOpen admits a single probe request; its outcome
	// decides between closing and re-opening.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "invalid"
	}
}

// breakerConfig bounds one member's breaker.
type breakerConfig struct {
	// threshold is the consecutive-failure count that trips
	// closed→open.
	threshold int
	// openFor is the first open interval; each re-open doubles it up to
	// maxOpen, and a close resets it.
	openFor time.Duration
	maxOpen time.Duration
}

// breaker is the per-member circuit: closed→open after threshold
// consecutive failures (transport failures and busy/draining streaks
// both count), open→half-open after the open interval, and the single
// half-open probe decides closed (success, interval resets) or open
// again (interval doubles, capped).
type breaker struct {
	cfg breakerConfig
	now func() time.Time
	// onTransition observes every state change. It is called outside
	// the breaker lock (it feeds metrics and the live-member recount,
	// which read breaker state back).
	onTransition func(from, to BreakerState)

	mu        sync.Mutex
	state     BreakerState
	fails     int
	openUntil time.Time
	interval  time.Duration // next open interval
	probing   bool          // a half-open probe is in flight
}

func newBreaker(cfg breakerConfig, now func() time.Time, onTransition func(from, to BreakerState)) *breaker {
	return &breaker{cfg: cfg, now: now, onTransition: onTransition, interval: cfg.openFor}
}

// State reports the current state (open lazily collapses to half-open
// only on the next allow, so an expired open still reads as open).
func (b *breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// live reports whether the breaker counts its member live: closed,
// half-open, or open past its interval (the next request would be
// admitted as the half-open probe). Unlike allow it changes no state,
// so on an idle fleet a member counts again once its interval runs out.
func (b *breaker) live() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state != BreakerOpen || b.elapsed()
}

// elapsed reports whether the open interval has run out. Caller holds
// b.mu.
func (b *breaker) elapsed() bool { return !b.now().Before(b.openUntil) }

// allow asks whether one request may proceed. In half-open only a
// single probe is admitted at a time; everyone else is rejected until
// the probe resolves.
func (b *breaker) allow() bool {
	b.mu.Lock()
	var fired func(from, to BreakerState)
	var from, to BreakerState
	ok := false
	switch b.state {
	case BreakerClosed:
		ok = true
	case BreakerOpen:
		if b.elapsed() {
			from, to = b.state, BreakerHalfOpen
			b.state = BreakerHalfOpen
			b.probing = true
			fired = b.onTransition
			ok = true
		}
	case BreakerHalfOpen:
		if !b.probing {
			b.probing = true
			ok = true
		}
	}
	b.mu.Unlock()
	if fired != nil {
		fired(from, to)
	}
	return ok
}

// success reports a completed request. Any success fully closes the
// breaker and resets both the failure streak and the open interval.
func (b *breaker) success() {
	b.mu.Lock()
	b.fails = 0
	b.probing = false
	var fired func(from, to BreakerState)
	var from BreakerState
	if b.state != BreakerClosed {
		from = b.state
		b.state = BreakerClosed
		b.interval = b.cfg.openFor
		fired = b.onTransition
	}
	b.mu.Unlock()
	if fired != nil {
		fired(from, BreakerClosed)
	}
}

// cancelProbe releases a half-open probe that ended without a verdict
// (the caller's context expired mid-flight, so the outcome says nothing
// about the backend). The probe slot reopens for a later request; no
// success or failure is counted and no state transition fires. Without
// this release a cancelled probe would leave probing set forever and
// the member unroutable until restart.
func (b *breaker) cancelProbe() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// failure reports a failed request: transport errors, busy and
// draining rejections all count. Threshold consecutive failures trip a
// closed breaker; a failed half-open probe re-opens immediately with a
// doubled interval.
func (b *breaker) failure() {
	b.mu.Lock()
	var fired func(from, to BreakerState)
	var from BreakerState
	switch b.state {
	case BreakerClosed:
		b.fails++
		if b.fails >= b.cfg.threshold {
			from = BreakerClosed
			b.trip()
			fired = b.onTransition
		}
	case BreakerHalfOpen:
		from = BreakerHalfOpen
		b.probing = false
		b.trip()
		fired = b.onTransition
	case BreakerOpen:
		// A request that was already in flight when the breaker
		// tripped; the open state already reflects the failure.
	}
	b.mu.Unlock()
	if fired != nil {
		fired(from, BreakerOpen)
	}
}

// trip moves to open and schedules the half-open probe. Caller holds
// b.mu.
func (b *breaker) trip() {
	b.state = BreakerOpen
	b.fails = 0
	b.openUntil = b.now().Add(b.interval)
	if b.interval *= 2; b.interval > b.cfg.maxOpen && b.cfg.maxOpen > 0 {
		b.interval = b.cfg.maxOpen
	}
}
