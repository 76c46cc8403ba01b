package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"lzssfpga"
	"lzssfpga/internal/cache"
	"lzssfpga/internal/cache/dict"
	"lzssfpga/internal/checksum"
	"lzssfpga/internal/deflate"
	"lzssfpga/internal/lzss"
	"lzssfpga/internal/server"
	"lzssfpga/internal/token"
)

var errMiss = errors.New("cache probe missed a stored key")

const (
	probeMax   = 200     // payloads per probe set
	probeBytes = 4 << 20 // and at most this many raw bytes of them
	probeReps  = 3       // each layer's cost is the median of this many passes
)

// probeSet is what the per-layer probes run on: payloads the workload
// compressed, and streams it decompressed with their dictionaries.
type probeSet struct {
	compress [][]byte
	streams  [][]byte
	dicts    [][]byte // per stream; nil when it has no preset dictionary
}

// firstPayloads collects the first payloads the timed phases sent.
func firstPayloads(p pool, runs []phaseRun) probeSet {
	var ps probeSet
	var n int
	for _, r := range runs[1:] {
		for _, sm := range r.samples {
			if sm.err != nil {
				continue
			}
			x := p.build(sm.op)
			switch {
			case sm.op.decompress && len(ps.streams) < probeMax:
				var d []byte
				if sm.op.dict != "" {
					d, _ = dict.Builtin(sm.op.dict) // the pool built its streams against it
				}
				ps.streams = append(ps.streams, x)
				ps.dicts = append(ps.dicts, d)
			case !sm.op.decompress && len(ps.compress) < probeMax && n+len(x) <= probeBytes:
				ps.compress = append(ps.compress, x)
				n += len(x)
			}
		}
	}
	return ps
}

// layerCosts are what each layer's public function costs on a probe
// set: ns per raw byte unless the name says otherwise.
type layerCosts struct {
	lzss, fixed, dynamic, inflate, adler, crc32, engine, key, frame float64
	hitUs                                                           float64
	chainSteps, compareBytes, matchYield                            float64 // lzss counters per raw byte; matches per chain step
}

// measureLayers times every layer on ps, each call a span.
func measureLayers(t *tracer, ref *refJob, ps probeSet) (layerCosts, error) {
	var lc layerCosts
	var firstErr error
	// perByte times f over items probeReps times, scales each pass by the
	// reference job run right after it, and returns the median pass in ns
	// per byte of total.
	perByte := func(layer, name string, n, total int, f func(i int) error) float64 {
		passes := make([]float64, probeReps)
		for r := range passes {
			var sum time.Duration
			for i := 0; i < n; i++ {
				var err error
				sum += t.timed(layer, name, 1, func() { err = f(i) })
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("%s %s: %w", layer, name, err)
				}
			}
			passes[r] = float64(sum) / float64(total) * ref.factor()
		}
		return summarize(passes).p50
	}

	// The matcher is timed the way the engine runs it: one matcher whose
	// tables are reused from call to call. Allocating fresh tables, as
	// the serial entry point does, is that entry point's cost.
	m, err := lzss.NewMatcher(nil, hw, nil)
	if err != nil {
		return lc, err
	}
	var raw int
	cmds := make([][]token.Command, len(ps.compress))
	for i, x := range ps.compress {
		cmds[i] = lzss.CompressReuse(nil, m, x)
		raw += len(x)
	}
	st := *m.Stats()
	lc.chainSteps = float64(st.ChainSteps) / float64(raw)
	lc.compareBytes = float64(st.CompareBytes) / float64(raw)
	lc.matchYield = float64(st.Matches) / float64(st.ChainSteps)

	n := len(ps.compress)
	each := func(f func(x []byte) error) func(int) error {
		return func(i int) error { return f(ps.compress[i]) }
	}
	var scratch []token.Command
	lc.lzss = perByte("lzss", "CompressReuse", n, raw, each(func(x []byte) error {
		scratch = lzss.CompressReuse(scratch[:0], m, x)
		return nil
	}))
	lc.fixed = perByte("deflate.encode", "FixedDeflate", n, raw, func(i int) error {
		_, err := deflate.FixedDeflate(cmds[i])
		return err
	})
	lc.dynamic = perByte("deflate.encode", "DynamicDeflate", n, raw, func(i int) error {
		_, err := deflate.DynamicDeflate(cmds[i])
		return err
	})
	lc.adler = perByte("checksum", "Adler32Sum", n, raw, each(func(x []byte) error {
		checksum.Adler32Sum(x)
		return nil
	}))
	lc.crc32 = perByte("checksum", "CRC32", n, raw, each(func(x []byte) error {
		checksum.CRC32(x)
		return nil
	}))
	// The engine's own cost is what a one-worker parallel call takes
	// beyond the match, dynamic-encode and checksum work it wraps.
	lc.engine = perByte("engine", "CompressParallel(workers=1)", n, raw, each(func(x []byte) error {
		_, err := lzssfpga.CompressParallel(x, hw, 0, 1)
		return err
	})) - lc.lzss - lc.dynamic - lc.adler
	lc.key = perByte("cache", "KeyFor", n, raw, each(func(x []byte) error {
		cache.KeyFor(x, 0, "")
		return nil
	}))
	var buf bytes.Buffer
	lc.frame = perByte("server", "WriteMessage+ReadMessage", n, raw, each(func(x []byte) error {
		buf.Reset()
		if err := server.WriteMessage(&buf, &server.Message{Op: server.OpCompress, Payload: x, HasReqID: true}); err != nil {
			return err
		}
		_, err := server.ReadMessage(&buf, len(x))
		return err
	}))

	// A hit: the key is already stored, so GetOrCompute only looks it up.
	c := cache.New(cache.Config{MaxBytes: 1 << 30})
	keys := make([]cache.Key, n)
	for i, x := range ps.compress {
		keys[i] = cache.KeyFor(x, 0, "")
		if _, _, err := c.GetOrCompute(context.Background(), keys[i], func() ([]byte, error) { return x, nil }, nil); err != nil {
			return lc, err
		}
	}
	lc.hitUs = perByte("cache", "GetOrCompute(hit)", n, n*1000, func(i int) error {
		_, hit, err := c.GetOrCompute(context.Background(), keys[i], func() ([]byte, error) { return nil, errMiss }, nil)
		if err == nil && !hit {
			err = fmt.Errorf("key %d missed", i)
		}
		return err
	})

	if len(ps.streams) > 0 {
		lim := deflate.DecodeLimits{MaxOutputBytes: 64 << 20}
		inflate := func(i int) ([]byte, error) {
			if ps.dicts[i] != nil {
				return deflate.ZlibDecompressDictLimited(ps.streams[i], ps.dicts[i], lim)
			}
			return deflate.ZlibDecompressLimited(ps.streams[i], lim)
		}
		var out int
		for i := range ps.streams {
			b, err := inflate(i)
			if err != nil {
				return lc, err
			}
			out += len(b)
		}
		lc.inflate = perByte("deflate.inflate", "ZlibDecompressLimited", len(ps.streams), out, func(i int) error {
			_, err := inflate(i)
			return err
		})
	}
	return lc, firstErr
}

// metrics are the per-layer metrics every workload reports.
func (lc layerCosts) metrics() map[string]metric {
	return map[string]metric{
		"lzss.ns_per_byte":            {lc.lzss, "ns/B"},
		"lzss.chain_steps_per_byte":   {lc.chainSteps, "steps/B"},
		"lzss.compare_bytes_per_byte": {lc.compareBytes, "B/B"},
		"lzss.match_yield":            {lc.matchYield, "fraction"},
		"deflate.fixed_ns_per_byte":   {lc.fixed, "ns/B"},
		"deflate.dynamic_ns_per_byte": {lc.dynamic, "ns/B"},
		"deflate.inflate_ns_per_byte": {lc.inflate, "ns/B"},
		"checksum.adler_ns_per_byte":  {lc.adler, "ns/B"},
		"checksum.crc32_ns_per_byte":  {lc.crc32, "ns/B"},
		"engine.overhead_ns_per_byte": {lc.engine, "ns/B"},
		"cache.key_ns_per_byte":       {lc.key, "ns/B"},
		"cache.hit_us":                {lc.hitUs, "us"},
		"server.frame_ns_per_byte":    {lc.frame, "ns/B"},
	}
}

// term is one layer's share of the end-to-end cost, in ns per raw byte.
type term struct {
	name string
	ns   float64
}

// addLadder prints the ledger — each layer's cost, their sum, the
// end-to-end cost and what is left unexplained — and adds its metrics.
func addLadder(m map[string]metric, what string, e2e float64, terms []term, residual string) {
	fmt.Printf("ladder: %s, ns per raw byte (share of end to end)\n", what)
	var sum float64
	for _, t := range terms {
		sum += t.ns
		fmt.Printf("  %-20s %10.3f  %6.1f%%\n", t.name, t.ns, 100*t.ns/e2e)
	}
	fmt.Printf("  %-20s %10.3f  %6.1f%%\n", "sum of layers", sum, 100*sum/e2e)
	fmt.Printf("  %-20s %10.3f\n", "end to end", e2e)
	fmt.Printf("  %-20s %10.3f  %6.1f%%  %s\n", "residual", e2e-sum, 100*(e2e-sum)/e2e, residual)
	m["ladder.e2e_ns_per_byte"] = metric{e2e, "ns/B"}
	m["ladder.layers_ns_per_byte"] = metric{sum, "ns/B"}
	m["ladder.residual_ns_per_byte"] = metric{e2e - sum, "ns/B"}
	m["ladder.residual_share"] = metric{(e2e - sum) / e2e, "fraction"}
}

// measureHop sends each payload through the cluster front and straight
// to its backend, alternating, and returns the mean extra round-trip
// time the front adds, in µs.
func measureHop(t *tracer, f *fleet, payloads [][]byte) (float64, error) {
	via, err := dial(f.front, false)
	if err != nil {
		return 0, err
	}
	defer via.close()
	direct, err := dial(f.direct, false)
	if err != nil {
		return 0, err
	}
	defer direct.close()
	var sum time.Duration
	for i, x := range payloads {
		var errs [2]error
		legs := [2]struct {
			c    conn
			name string
		}{{via, "via front"}, {direct, "direct"}}
		if i%2 == 1 {
			legs[0], legs[1] = legs[1], legs[0]
		}
		var d [2]time.Duration
		for k, leg := range legs {
			d[k] = t.timed("cluster", leg.name, 1, func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				_, errs[k] = leg.c.do(ctx, op{}, x)
				cancel()
			})
		}
		if errs[0] != nil || errs[1] != nil {
			return 0, fmt.Errorf("hop probe: %v / %v", errs[0], errs[1])
		}
		if i%2 == 1 {
			d[0], d[1] = d[1], d[0]
		}
		sum += d[0] - d[1]
	}
	return float64(sum) / float64(len(payloads)) / 1e3, nil
}

// ledger is the traced half of a serving run: request spans, the
// daemons' own stage timings per phase, the per-layer metrics and the
// ladder of the lo phase.
func (s *servingSpec) ledger(c *config, runs []phaseRun, o *outcome, ps probeSet, hopUs float64) error {
	front := "server"
	if s == clusterSmall {
		front = "cluster"
	}
	c.trace.requests(front, runs)
	hitShare := printDaemonSide(s, runs)
	if s == clusterSmall {
		fmt.Printf("cluster.hop_us %.1f (front minus direct round trip, n=%d)\n", hopUs, len(ps.compress))
	}

	lc, err := measureLayers(c.trace, c.ref, ps)
	if err != nil {
		return err
	}
	o.layers = lc.metrics()
	o.layers["loadgen.sent"] = metric{float64(o.attempted), "count"}

	var raw, lat float64
	acc := map[string]float64{}
	for _, run := range runs {
		if run.name == "lo" {
			for _, sm := range run.samples {
				if sm.err == nil {
					raw += float64(sm.raw)
					lat += float64(sm.latency()) * run.factor
				}
			}
		}
	}
	lo, _ := pooled(runs, "lo")
	for _, sm := range lo {
		if sm.err != nil {
			continue
		}
		r := float64(sm.raw)
		if sm.op.decompress {
			acc["deflate.inflate"] += r * lc.inflate
		} else {
			miss := 1 - hitShare
			acc["lzss"] += miss * r * lc.lzss
			acc["deflate.dynamic"] += miss * r * lc.dynamic
			acc["checksum.adler"] += miss * r * lc.adler
			acc["engine"] += miss * r * lc.engine
			if s.cached {
				acc["cache.key"] += r * lc.key
				acc["cache.hit"] += hitShare * lc.hitUs * 1e3
			}
		}
		if !s.http {
			acc["server.frame"] += float64(sm.wire) * lc.frame
		}
		if s == clusterSmall {
			acc["cluster.hop"] += hopUs * 1e3
		}
	}
	var terms []term
	for _, name := range []string{"lzss", "deflate.dynamic", "checksum.adler", "engine", "deflate.inflate", "cache.key", "cache.hit", "server.frame", "cluster.hop"} {
		if v, ok := acc[name]; ok {
			terms = append(terms, term{name, v / raw})
		}
	}
	rest := "loopback sockets, goroutine hand-offs, client.Mux demultiplexing and queueing"
	if s.http {
		rest = "net/http on both ends, loopback sockets, the dictionary path and queueing"
	}
	addLadder(o.layers, fmt.Sprintf("lo phase at %.0f req/s, latency from the due time", s.lo), lat/raw, terms, rest)
	printMetrics("per-layer metrics:", o.layers)
	return nil
}

// printDaemonSide prints the daemons' own timings per phase, from
// /metrics deltas summed over the rounds, and returns the result cache's
// hit share in the lo phases.
func printDaemonSide(s *servingSpec, runs []phaseRun) float64 {
	fmt.Println("daemon side per phase (backend /metrics deltas; µs means):")
	var loHits float64
	for _, name := range phaseNames[1:] {
		// delta sums a counter's growth on daemon d over the phase's rounds.
		delta := func(d int, counter string) float64 {
			var sum float64
			for _, r := range runs {
				if r.name == name && len(r.scrapes[0]) > d {
					sum += r.scrapes[1][d][counter] - r.scrapes[0][d][counter]
				}
			}
			return sum
		}
		mean := func(hist string) float64 {
			if n := delta(0, hist+"_count"); n > 0 {
				return delta(0, hist+"_sum") / n
			}
			return 0
		}
		var rtt float64
		ss, _ := pooled(runs, name)
		var n int
		for _, sm := range ss {
			if sm.err == nil {
				rtt += float64(sm.end-sm.start) / 1e3
				n++
			}
		}
		fmt.Printf("  %-7s server.latency_us %8.1f  server.slot_wait_us %7.1f  engine.queue_wait_us %7.1f  server.compress_us %8.1f  engine.reorder_wait_us %6.1f  server.write_us %7.1f  server.busy_rejects %.0f  server.rtt_overhead_us %8.1f\n",
			name, mean("server_latency_us"), mean("server_stage_slot_wait_us"), mean("server_stage_queue_wait_us"),
			mean("server_stage_compress_us"), mean("server_stage_reorder_wait_us"), mean("server_stage_response_write_us"),
			delta(0, "server_busy_rejects_total"), rtt/float64(max(n, 1))-mean("server_latency_us"))
		if s.cached {
			hits, misses := delta(0, "engine_cache_hits_total"), delta(0, "engine_cache_misses_total")
			share := hits / max(hits+misses, 1)
			fmt.Printf("  %-7s cache.hit_share %.4f  cache.evictions %.0f\n", "", share, delta(0, "engine_cache_evictions_total"))
			if name == "lo" {
				loHits = share
			}
		}
		if s == clusterSmall {
			fmt.Printf("  %-7s cluster.retries %.0f\n", "", delta(1, "cluster_retries_total"))
		}
	}
	return loHits
}
