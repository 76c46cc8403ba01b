// Package obs is the repository's zero-dependency observability layer:
// a named registry of atomic counters, gauges and fixed-bucket
// histograms, an HTTP exposition handler (Prometheus text format,
// expvar-style JSON, pprof), and per-request traces that record each
// parallel segment's span and render as Chrome trace events.
//
// Design rules, in priority order:
//
//  1. Disabled means free. Every metric method is nil-safe: a nil
//     *Counter/*Gauge/*Histogram (what a nil *Registry hands out) is a
//     no-op, so instrumented packages never branch on an "enabled"
//     flag — they just hold nil handles until SetObservability wires a
//     registry in.
//  2. Enabled means cheap. Updates are single atomic operations (one
//     predictable add for counters, one bucket increment plus a sum add
//     for histograms); nothing on an update path allocates or locks.
//     Hot loops batch locally and flush deltas at block/segment
//     granularity (see internal/lzss's Matcher.FlushObs), keeping the
//     measured overhead of a fully enabled registry under 2% on the
//     compression hot path (BenchmarkObsOverhead).
//  3. One name, one number. Canonical metric names live in names.go;
//     the Prometheus endpoint, the expvar JSON, and the lzssbench
//     -json report all read the same registry snapshot.
package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic int64.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float64 (last-write-wins).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the stored value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram over int64 observations.
// Bounds are inclusive upper bounds in increasing order; observations
// above the last bound land in the implicit +Inf bucket. Buckets are
// stored non-cumulatively and accumulated to Prometheus's cumulative
// form at exposition time.
type Histogram struct {
	bounds  []int64
	buckets []atomic.Int64 // len(bounds)+1, last is +Inf
	sum     atomic.Int64
	count   atomic.Int64
}

func newHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[h.bucketOf(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

func (h *Histogram) bucketOf(v int64) int {
	for i, b := range h.bounds {
		if v <= b {
			return i
		}
	}
	return len(h.bounds)
}

// MergeBucket folds n pre-bucketed observations summing to sum into
// bucket i — the flush path for hot loops that histogram locally (the
// lzss matcher's match-length and chain-depth arrays). i indexes the
// same bounds the histogram was registered with; i == len(bounds)
// addresses the +Inf bucket. No-op on a nil receiver or when n == 0.
func (h *Histogram) MergeBucket(i int, n, sum int64) {
	if h == nil || n == 0 || i < 0 || i >= len(h.buckets) {
		return
	}
	h.buckets[i].Add(n)
	h.sum.Add(sum)
	h.count.Add(n)
}

// Merge folds a batch of pre-bucketed observations into the histogram:
// counts[i] observations in bucket i (same bounds indexing as
// MergeBucket, counts may be shorter than the bucket count), summing to
// sum in total. This is the flush path for hot loops that histogram
// into a local fixed array and publish at block granularity. No-op on a
// nil receiver.
func (h *Histogram) Merge(counts []int64, sum int64) {
	if h == nil {
		return
	}
	total := int64(0)
	for i, n := range counts {
		if n != 0 && i < len(h.buckets) {
			h.buckets[i].Add(n)
			total += n
		}
	}
	if total != 0 {
		h.count.Add(total)
	}
	if sum != 0 {
		h.sum.Add(sum)
	}
}

// Bounds returns the registered upper bounds.
func (h *Histogram) Bounds() []int64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Buckets returns the non-cumulative per-bucket counts (len(bounds)+1,
// last is +Inf).
func (h *Histogram) Buckets() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}
