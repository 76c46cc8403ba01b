package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// op names one request of a workload: what it asks for and which
// generated input it carries. It is comparable, so it also keys the
// output ledger.
type op struct {
	decompress bool
	idx        int    // index into the workload's block, object or stream pool
	nonce      uint64 // stamped into the payload; 0 leaves the pooled bytes as they are
	dict       string // preset dictionary name, "" for none
}

// sample is one timed request. Offsets count from the phase start. In an
// open loop due is the scheduled send time; in a closed loop it equals
// start.
type sample struct {
	op              op
	w               int // sender or caller
	due, start, end time.Duration
	// idle is set when the sender was waiting for the due time, so
	// start-due is the generator's own lateness and not a backlog.
	idle bool
	raw  int // uncompressed bytes the request moved
	wire int // payload plus response bytes
	err  error
}

// latency counts from the due time, so a backlog behind busy senders is
// charged to the system. A sender that was waiting for the due time and
// woke late (the runtime's timers fire up to about a millisecond late)
// charges its own lateness to the generator, reported by lateness, not
// to the system.
func (s sample) latency() time.Duration {
	if s.idle {
		return s.end - s.start
	}
	return s.end - s.due
}

// exchange sends o with its payload from sender w, records the response
// and reports the raw and the wire byte counts.
type exchange func(w int, o op, payload []byte) (raw, wire int, err error)

// poissonSchedule draws the send times of independent users arriving at
// rate per second over d: exponential gaps from a seeded source, so one
// seed always yields the same schedule.
func poissonSchedule(rate float64, d time.Duration, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, due)
	}
}

// openLoop sends ops[i] at sched[i] after the phase start from at most
// senders goroutines. A request whose senders are all still busy at its
// due time goes out late, and its latency still counts from the due
// time, so a stall shows in every request it delayed.
func openLoop(sched []time.Duration, ops []op, senders int, build func(op) []byte, ex exchange) []sample {
	samples := make([]sample, len(sched))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				payload := build(ops[i])
				s := sample{op: ops[i], w: w, due: sched[i]}
				if d := sched[i] - time.Since(t0); d > 0 {
					time.Sleep(d)
					s.idle = true
				}
				s.start = time.Since(t0)
				s.raw, s.wire, s.err = ex(w, ops[i], payload)
				s.end = time.Since(t0)
				samples[i] = s
			}
		}(w)
	}
	wg.Wait()
	return samples
}

// closedLoop runs callers back to back for d: each sends its next
// request as soon as the previous one answered. nextOp(w, k) is caller
// w's k-th request. It returns the samples and the time the last
// request ended.
func closedLoop(d time.Duration, callers int, nextOp func(w, k int) op, build func(op) []byte, ex exchange) ([]sample, time.Duration) {
	per := make([][]sample, callers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; time.Since(t0) < d; k++ {
				o := nextOp(w, k)
				payload := build(o)
				s := sample{op: o, w: w, start: time.Since(t0)}
				s.due = s.start
				s.raw, s.wire, s.err = ex(w, o, payload)
				s.end = time.Since(t0)
				per[w] = append(per[w], s)
			}
		}(w)
	}
	wg.Wait()
	var all []sample
	var last time.Duration
	for _, ss := range per {
		all = append(all, ss...)
		for _, s := range ss {
			last = max(last, s.end)
		}
	}
	return all, last
}

// dist summarizes a sample of values by nearest-rank percentiles; n is
// the sample count the percentiles rest on.
type dist struct {
	n                       int
	p25, p50, p75, p90, p95 float64
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest value with at least p% of the sample at or
// below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{n: len(s), p25: percentile(s, 25), p50: percentile(s, 50), p75: percentile(s, 75), p90: percentile(s, 90), p95: percentile(s, 95)}
}

// latencies returns the latencies in milliseconds of the successful
// samples.
func latencies(ss []sample) []float64 {
	var out []float64
	for _, s := range ss {
		if s.err == nil {
			out = append(out, ms(s.latency()))
		}
	}
	return out
}

// lateness returns the generator's own lateness in milliseconds: how far
// past the due time a sender that was waiting for it actually sent.
func lateness(ss []sample) []float64 {
	var out []float64
	for _, s := range ss {
		if s.idle {
			out = append(out, ms(s.start-s.due))
		}
	}
	return out
}

// goodputChunk is how many consecutive requests one goodput estimate
// covers.
const goodputChunk = 200

// chunkRates orders the samples by completion, cuts them into chunks of
// n requests, and returns for each chunk the raw bytes per second that
// the successful samples keep accepts finished in it (over the time
// since the previous chunk ended). Fewer than n samples make one chunk.
func chunkRates(ss []sample, n int, keep func(sample) bool) []float64 {
	sorted := append([]sample(nil), ss...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].end < sorted[j].end })
	n = min(n, len(sorted))
	var rates []float64
	var prev time.Duration
	for lo := 0; lo+n <= len(sorted) && n > 0; lo += n {
		var b float64
		for _, s := range sorted[lo : lo+n] {
			if s.err == nil && keep(s) {
				b += float64(s.raw)
			}
		}
		end := sorted[lo+n-1].end
		rates = append(rates, b/(end-prev).Seconds())
		prev = end
	}
	return rates
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
