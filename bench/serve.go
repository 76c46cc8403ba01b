package main

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"

	"lzssfpga/internal/server"
	"lzssfpga/internal/server/client"
)

// senders is both the open-loop sending goroutines and the closed-loop
// callers: one per CPU of the two-core hosts the benchmark was tuned
// on, and one connection each per front.
const senders = 2

// servingSpec is one serving workload. lo and hi are fixed open-loop
// rates, about 27% and 64% of the lower quartile of the closed-loop
// capacity a shared two-core host gave over two hours (serve-tcp 485,
// serve-hot 2,922, cluster-small 2,406 requests per second; up to 756,
// 4,809 and 3,629 at its best). At rates set from its best hours, a slow
// hour pushed hi past capacity and lo into queueing that multiplied its
// tail latency. They are constants, never derived from a run's own
// measurements.
type servingSpec struct {
	lo, hi float64 // requests per second
	http   bool    // clients use the HTTP front; otherwise framed TCP through client.Mux
	cached bool    // the daemon keys every compress request into its result cache
	args   []string
	pool   func(seed int64) (pool, error)
}

var (
	serveTCP = &servingSpec{
		lo: 130, hi: 310, cached: true,
		args: []string{"-cache-bytes", "67108864"},
		pool: func(seed int64) (pool, error) { return newBlockPool(seed, 64<<10, 16) },
	}
	serveHot = &servingSpec{
		lo: 800, hi: 1900, http: true, cached: true,
		args: []string{"-cache-bytes", "4194304", "-dicts", "all"},
		pool: func(seed int64) (pool, error) { return newObjectPool(seed) },
	}
	clusterSmall = &servingSpec{
		lo: 650, hi: 1500,
		pool: func(seed int64) (pool, error) { return newBlockPool(seed, 4<<10, 64) },
	}
)

// phase is one stretch of a serving run: rate 0 is a closed loop.
type phase struct {
	name  string
	share float64 // of the run's seconds
	rate  float64
}

// phaseNames are the phases of a serving run; after the warm-up the
// other three repeat for every round.
var phaseNames = []string{"warm-up", "lo", "hi", "closed"}

// rounds is how many times a serving run cycles through its measured
// phases, so that every metric samples the whole run rather than one
// stretch of it: the host's speed drifts over seconds.
const rounds = 6

func (s *servingSpec) phases() []phase {
	ps := []phase{{"warm-up", 0.1, 0}}
	for r := 0; r < rounds; r++ {
		ps = append(ps, phase{"lo", 0.35 / rounds, s.lo}, phase{"hi", 0.2 / rounds, s.hi}, phase{"closed", 0.35 / rounds, 0})
	}
	return ps
}

// fleet is the set of daemons a serving workload runs against.
type fleet struct {
	daemons []*daemon // backend first
	front   string    // where the clients send
	direct  string    // cluster-small: the backend's framed front
	metrics []string  // traced runs: each daemon's metrics address
}

func (s *servingSpec) start(c *config) (*fleet, error) {
	traced := c.trace != nil
	base := func(fronts ...string) ([]string, []string) {
		args := []string{"-drain", "5s", "-http", "", "-tcp", ""}
		for _, f := range fronts {
			args = append(args, "-"+f, "127.0.0.1:0")
		}
		if traced {
			args = append(args, "-metrics", "127.0.0.1:0")
			fronts = append(fronts, "metrics")
		}
		return args, fronts
	}
	f := &fleet{}
	add := func(d *daemon) {
		f.daemons = append(f.daemons, d)
		if traced {
			f.metrics = append(f.metrics, d.addr["metrics"])
		}
	}
	switch {
	case s == clusterSmall:
		args, want := base("http", "tcp")
		be, err := spawn(c.lzssd, want, args...)
		if err != nil {
			return nil, err
		}
		add(be)
		args, want = base("tcp")
		args = append(args, "-cluster", "-backends", be.addr["tcp"]+"/"+be.addr["http"])
		fr, err := spawn(c.lzssd, want, args...)
		if err != nil {
			f.stop() //nolint:errcheck // reporting the spawn error
			return nil, err
		}
		add(fr)
		f.front, f.direct = fr.addr["tcp"], be.addr["tcp"]
	default:
		front := "tcp"
		if s.http {
			front = "http"
		}
		args, want := base(front)
		d, err := spawn(c.lzssd, want, append(args, s.args...)...)
		if err != nil {
			return nil, err
		}
		add(d)
		f.front = d.addr[front]
	}
	return f, nil
}

// stop drains every daemon, front first, and returns their summed peak
// resident sets in MiB.
func (f *fleet) stop() (float64, error) {
	var rss float64
	var first error
	for i := len(f.daemons) - 1; i >= 0; i-- {
		r, err := f.daemons[i].stop()
		rss += r
		if first == nil {
			first = err
		}
	}
	return rss, first
}

// conn is one client connection to a front.
type conn interface {
	do(ctx context.Context, o op, payload []byte) ([]byte, error)
	close()
}

type muxConn struct{ m *client.Mux }

func (c muxConn) do(ctx context.Context, o op, payload []byte) ([]byte, error) {
	code := byte(server.OpCompress)
	if o.decompress {
		code = server.OpDecompress
	}
	out, _, err := c.m.DoDict(ctx, code, payload, o.dict)
	return out, err
}

func (c muxConn) close() { c.m.Close() } //nolint:errcheck // Close always succeeds

type httpConn struct{ h *client.HTTP }

func (c httpConn) do(ctx context.Context, o op, payload []byte) ([]byte, error) {
	if o.decompress {
		return c.h.DecompressDict(ctx, payload, o.dict)
	}
	return c.h.CompressDict(ctx, payload, o.dict)
}

func (c httpConn) close() {}

// exchangeOver sends sender w's requests over conns[w] and keeps each
// response in led, to be checked after the phase.
func exchangeOver(conns []conn, led *ledger) exchange {
	return func(w int, o op, payload []byte) (int, int, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		out, err := conns[w].do(ctx, o, payload)
		if err != nil {
			return 0, 0, err
		}
		raw := len(payload)
		if o.decompress {
			raw = len(out)
		}
		led.record(o, raw, out)
		return raw, len(payload) + len(out), nil
	}
}

// openPhase sends phase pi's requests, drawn from p, on the seeded
// Poisson schedule of rate per second over d.
func openPhase(seed int64, pi int, rate float64, d time.Duration, p pool, ex exchange) []sample {
	sched := poissonSchedule(rate, d, subSeed(seed, pi, senders))
	next := p.stream(subSeed(seed, pi, senders+1))
	ops := make([]op, len(sched))
	for i := range ops {
		ops[i] = next(uint64(pi)<<40 | uint64(i+1))
	}
	return openLoop(sched, ops, senders, p.build, ex)
}

func dial(addr string, useHTTP bool) (conn, error) {
	if useHTTP {
		return httpConn{client.NewHTTP(addr)}, nil
	}
	m, err := client.DialMuxTimeout(addr, 0, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return muxConn{m}, nil
}

// setUp starts the workload's daemons setups times and returns the last
// fleet with the set-up times: from spawning the first daemon until a
// request made it through the front and back.
func (s *servingSpec) setUp(c *config) (*fleet, []float64, error) {
	var secs []float64
	for i := 0; ; i++ {
		t := time.Now()
		f, err := s.start(c)
		if err != nil {
			return nil, nil, err
		}
		if err := roundTrip(f.front, s.http); err != nil {
			f.stop() //nolint:errcheck // reporting the round-trip error
			return nil, nil, err
		}
		secs = append(secs, time.Since(t).Seconds())
		if i == setups-1 {
			return f, secs, nil
		}
		if _, err := f.stop(); err != nil {
			return nil, nil, err
		}
	}
}

// roundTrip retries one small compress request until the front answers.
func roundTrip(addr string, useHTTP bool) error {
	payload := []byte(strings.Repeat("lzssd set-up probe ", 64))
	deadline := time.Now().Add(20 * time.Second)
	for {
		cn, err := dial(addr, useHTTP)
		if err == nil {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_, err = cn.do(ctx, op{}, payload)
			cancel()
			cn.close()
		}
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no round trip through %s: %w", addr, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// phaseRun is what one round of a phase produced.
type phaseRun struct {
	phase
	t0      time.Time // about when the phase started; sample offsets count from it
	samples []sample
	elapsed time.Duration
	scrapes [2][]map[string]float64 // traced: each daemon's /metrics before and after
	factor  float64                 // the reference job's reading around the round
}

// runServing sets the fleet up, runs the phases, verifies every
// response after each phase and reports the end-to-end metrics (and,
// traced, the per-layer ledger).
func runServing(c *config, s *servingSpec) (*outcome, error) {
	// The Go HTTP client keeps at most this many connections per front.
	http.DefaultTransport.(*http.Transport).MaxConnsPerHost = senders
	p, err := s.pool(c.seed)
	if err != nil {
		return nil, err
	}
	var f *fleet
	var setup []float64
	setupFactor := c.ref.around(func() { f, setup, err = s.setUp(c) })
	if err != nil {
		return nil, err
	}
	o, runs, err := s.drive(c, f, p)
	var ps probeSet
	var hopUs float64
	if err == nil && c.trace != nil {
		ps = firstPayloads(p, runs)
		if s == clusterSmall {
			scale := c.ref.around(func() { hopUs, err = measureHop(c.trace, f, ps.compress) })
			hopUs *= scale
		}
	}
	rss, stopErr := f.stop()
	if err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = summarize(setup).p50 * setupFactor
	o.raw["setup_s"] = summarize(setup).p50
	o.e2e["peak_rss_mb"] = rss
	o.how["setup_s"] = fmt.Sprintf("spawn to first round trip, median of n=%d", len(setup))
	o.how["peak_rss_mb"] = "VmHWM summed over the daemons"
	printPhases(runs)
	printE2E(o)
	fmt.Printf("loadgen.late_p95_ms %.3f (bound %.0f)  loadgen.sent %d  loadgen.failed %d\n",
		o.lateP95, ms(maxLateP95), o.attempted, o.failed)
	if c.trace != nil {
		if err := s.ledger(c, runs, o, ps, hopUs); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// drive runs the phases against a started fleet.
func (s *servingSpec) drive(c *config, f *fleet, p pool) (*outcome, []phaseRun, error) {
	conns := make([]conn, senders)
	for w := range conns {
		cn, err := dial(f.front, s.http)
		if err != nil {
			return nil, nil, err
		}
		defer cn.close()
		conns[w] = cn
	}
	led := newLedger()
	ex := exchangeOver(conns, led)
	o := &outcome{e2e: map[string]float64{}}
	var runs []phaseRun
	for pi, ph := range s.phases() {
		r := phaseRun{phase: ph}
		d := time.Duration(ph.share * float64(c.run))
		var err error
		if r.scrapes[0], err = f.scrape(); err != nil {
			return nil, nil, err
		}
		r.factor = c.ref.around(func() {
			r.t0 = time.Now()
			if ph.rate == 0 {
				streams := make([]func(uint64) op, senders)
				for w := range streams {
					streams[w] = p.stream(subSeed(c.seed, pi, w))
				}
				r.samples, r.elapsed = closedLoop(d, senders, func(w, k int) op {
					return streams[w](uint64(pi)<<40 | uint64(w)<<32 | uint64(k+1))
				}, p.build, ex)
			} else {
				r.samples = openPhase(c.seed, pi, ph.rate, d, p, ex)
				r.elapsed = d
			}
		})
		if r.scrapes[1], err = f.scrape(); err != nil {
			return nil, nil, err
		}
		led.verify(p.check)
		for _, sm := range r.samples {
			o.attempted++
			if sm.err != nil {
				o.failed++
			}
		}
		runs = append(runs, r)
	}
	o.verified, o.mismatches = led.verified, led.mismatches
	o.failed += led.mismatches

	// goodput is the median over the closed loop's stretches of raw MB/s,
	// each scaled by its round's reference factor, and as measured.
	goodput := func(decompress bool) (scaled, measured dist) {
		var s, m []float64
		for _, r := range runs {
			if r.name == "closed" {
				for _, g := range chunkRates(r.samples, goodputChunk, func(sm sample) bool {
					return sm.op.decompress == decompress
				}) {
					s = append(s, g/r.factor/(1<<20))
					m = append(m, g/(1<<20))
				}
			}
		}
		return summarize(s), summarize(m)
	}
	lo, _ := pooled(runs, "lo")
	hi, _ := pooled(runs, "hi")
	// The listed latency is the closed loop's: the open-loop phases are
	// printed, but on a shared host they measure its stalls as much as the
	// daemon (see printPhases and the README).
	lat, rawLat := phaseLatencies(runs, "closed")
	comp, rawComp := goodput(false)
	decomp, rawDecomp := goodput(true)
	o.e2e["compress_mb_s"] = comp.p50
	o.e2e["decompress_mb_s"] = decomp.p50
	o.e2e["ratio"] = float64(led.raw) / float64(led.comp)
	o.e2e["lat_p50_ms"] = lat.p50
	o.e2e["lat_p90_ms"] = lat.p90
	o.raw = map[string]float64{
		"compress_mb_s":   rawComp.p50,
		"decompress_mb_s": rawDecomp.p50,
		"lat_p50_ms":      rawLat.p50,
		"lat_p90_ms":      rawLat.p90,
	}
	stretches := fmt.Sprintf("goodput, median over n=%d closed-loop stretches of %d requests", comp.n, goodputChunk)
	o.how = map[string]string{
		"compress_mb_s":   "compress " + stretches,
		"decompress_mb_s": "decompress " + stretches,
		"ratio":           "all compress responses",
		"lat_p50_ms":      fmt.Sprintf("per request, closed loop of %d callers, median of %d rounds' p50, n=%d", senders, rounds, lat.n),
		"lat_p90_ms":      fmt.Sprintf("per request, closed loop of %d callers, median of %d rounds' p90, n=%d", senders, rounds, lat.n),
	}
	o.lateP95 = summarize(append(lateness(lo), lateness(hi)...)).p95
	return o, runs, nil
}

// phaseLatencies returns the median over the named phase's rounds of
// each round's p50 and p90 latency, in ms from the due time: scaled by
// the round's reference factor, and as measured; n is the pooled sample
// count. The shared host slows for seconds at a time; a slow stretch
// that spans a minority of the rounds moves neither median.
func phaseLatencies(runs []phaseRun, name string) (scaled, measured dist) {
	var s50, s90, m50, m90 []float64
	var n int
	for _, r := range runs {
		if r.name == name {
			d := summarize(latencies(r.samples))
			n += d.n
			s50, s90 = append(s50, d.p50*r.factor), append(s90, d.p90*r.factor)
			m50, m90 = append(m50, d.p50), append(m90, d.p90)
		}
	}
	med := func(xs []float64) float64 { return summarize(xs).p50 }
	return dist{n: n, p50: med(s50), p90: med(s90)}, dist{n: n, p50: med(m50), p90: med(m90)}
}

// pooled merges every round of the named phase.
func pooled(runs []phaseRun, name string) ([]sample, time.Duration) {
	var ss []sample
	var elapsed time.Duration
	for _, r := range runs {
		if r.name == name {
			ss = append(ss, r.samples...)
			elapsed += r.elapsed
		}
	}
	return ss, elapsed
}

// subSeed derives the seed of one generator of a phase from the run's
// seed, so every schedule and request stream is fixed by -seed.
func subSeed(seed int64, phase, stream int) int64 {
	return seed*1_000_003 + int64(phase)*1_009 + int64(stream)
}

// scrape reads every daemon's metrics; untraced fleets have none.
func (f *fleet) scrape() ([]map[string]float64, error) {
	var out []map[string]float64
	for _, a := range f.metrics {
		m, err := scrape(a)
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", a, err)
		}
		out = append(out, m)
	}
	return out, nil
}

// printPhases prints every phase with its rounds pooled: throughput,
// latency from the due time, failures and the generator's lateness.
func printPhases(runs []phaseRun) {
	fmt.Printf("phases, %d rounds pooled (latency from the due time, as measured; ms, nearest rank):\n", rounds)
	for _, name := range phaseNames {
		ss, elapsed := pooled(runs, name)
		var fails int
		for _, sm := range ss {
			if sm.err != nil {
				fails++
			}
		}
		lat := summarize(latencies(ss))
		kind := fmt.Sprintf("closed loop, %d callers     ", senders)
		for _, r := range runs {
			if r.name == name && r.rate > 0 {
				kind = fmt.Sprintf("open loop %5.0f req/s offered", r.rate)
			}
		}
		late := summarize(lateness(ss))
		fmt.Printf("  %-8s %s %6.0f req/s done  p50 %7.3f  p90 %7.3f  p95 %7.3f  n=%-6d failed=%d",
			name, kind, float64(len(ss))/elapsed.Seconds(), lat.p50, lat.p90, lat.p95, lat.n, fails)
		if late.n > 0 {
			fmt.Printf("  late p95 %.3f (n=%d)", late.p95, late.n)
		}
		fmt.Printf("\n  %-8s p90 by round:", "")
		for _, r := range runs {
			if r.name == name {
				fmt.Printf(" %.3f", summarize(latencies(r.samples)).p90)
			}
		}
		fmt.Println()
	}
}

// printE2E prints the end-to-end metrics with units and what each one
// measured on this workload.
func printE2E(o *outcome) {
	fmt.Println("end-to-end metrics (timings scaled to the reference; as measured in brackets):")
	for _, k := range []string{"setup_s", "compress_mb_s", "decompress_mb_s", "ratio", "lat_p50_ms", "lat_p90_ms", "peak_rss_mb"} {
		measured := ""
		if v, ok := o.raw[k]; ok {
			measured = fmt.Sprintf("(%.4f)", v)
		}
		fmt.Printf("  %-16s %12.4f %-5s %-11s %s\n", k, o.e2e[k], e2eUnits[k], measured, o.how[k])
	}
}
