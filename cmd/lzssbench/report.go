package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"lzssfpga"
	"lzssfpga/internal/cache"
	"lzssfpga/internal/workload"
)

// Machine-readable benchmark report (the BENCH_*.json trajectory
// format): one JSON file per measurement point with throughput, ratio
// and allocation counts for the software paths, plus the frozen
// baseline measured on the growth seed so every later point carries its
// own before/after comparison.

// benchEntry is one benchmarked configuration. MBPerS is taken from
// the fastest iteration — the least noise-contaminated sample, and the
// number the -compare regression gate uses — while MBPerSMean keeps
// the whole-run average for continuity with older reports.
type benchEntry struct {
	Name        string  `json:"name"`
	MBPerS      float64 `json:"mb_per_s"`
	MBPerSMean  float64 `json:"mb_per_s_mean,omitempty"`
	Ratio       float64 `json:"ratio"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
	// GOMAXPROCS is the processor count the row was measured at (the
	// -sweep rows vary it). 0 in older reports means "the report-level
	// GOMAXPROCS"; -compare resolves that before matching rows.
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`
}

// benchReport is the file layout (schema lzssfpga-bench/2; /1 reports
// lack the host-topology fields and the rand rows).
type benchReport struct {
	Schema     string `json:"schema"`
	Timestamp  string `json:"timestamp"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// NumCPU and CPUModel record the host topology the numbers were
	// measured on, so trajectory points across machines stay
	// interpretable (a 1-core box cannot show parallel speedup no matter
	// what the code does). CPUModel is best-effort from /proc/cpuinfo.
	NumCPU   int    `json:"num_cpu,omitempty"`
	CPUModel string `json:"cpu_model,omitempty"`
	// Sweep records whether the GOMAXPROCS sweep rows were measured.
	Sweep    bool   `json:"sweep,omitempty"`
	Workload string `json:"workload"`
	Bytes    int    `json:"bytes"`
	Seed     int64  `json:"seed"`
	// CalibMBPerS is a machine-speed reference measured in the same run
	// as the results: a byte-wise Adler-32 loop over the corpus, a fixed
	// CPU-bound loop no compression change touches. When two reports both carry it,
	// the -compare gate scales the old throughputs by the calibration
	// ratio, so a slower CI box on a later day doesn't read as a code
	// regression (and a faster one doesn't hide a real regression).
	CalibMBPerS float64      `json:"calib_mb_per_s,omitempty"`
	Baseline    []benchEntry `json:"baseline_seed"`
	Results     []benchEntry `json:"results"`
	// Metrics is the observability registry snapshot taken right after
	// the timed runs: the same counters, under the same canonical names,
	// that a Prometheus scrape of -metrics would report (histograms are
	// flattened to name_bucket_le_<bound>/name_sum/name_count keys).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// seedBaseline holds the same benchmarks measured at the growth seed
// (commit 0471386, byte-at-a-time compare, per-call allocations,
// bytes.Buffer assembly), 4 MiB Wiki workload on one core. Kept frozen
// in the binary so each BENCH_*.json is self-contained.
var seedBaseline = []benchEntry{
	{Name: "serial", MBPerS: 31.56, Ratio: 1.724, AllocsPerOp: 26, BytesPerOp: 44533176, Iterations: 20},
	{Name: "parallel", MBPerS: 13.83, Ratio: 2.272, AllocsPerOp: 747, BytesPerOp: 44503092, Iterations: 20},
	// Pre-skip generation-one code on the incompressible workload
	// (1 MiB random, same box class): the baseline the match-skip
	// acceptance gate measures serial_rand against. serial_rand_seed is
	// the paper's speed setting, serial_rand_seed_default LevelDefault.
	{Name: "serial_rand_seed", MBPerS: 21.35, Ratio: 0.948, Iterations: 52},
	{Name: "serial_rand_seed_default", MBPerS: 14.19, Ratio: 0.948, Iterations: 31},
}

// benchOne measures fn over the workload: one warm-up call for the
// ratio, then iters timed calls bracketed by ReadMemStats for the
// per-op allocation counts.
func benchOne(name string, data []byte, iters int, fn func() ([]byte, error)) (benchEntry, error) {
	z, err := fn()
	if err != nil {
		return benchEntry{}, fmt.Errorf("%s: %w", name, err)
	}
	ratio := 0.0
	if len(z) > 0 {
		ratio = float64(len(data)) / float64(len(z))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var elapsed, fastest time.Duration
	for i := 0; i < iters; i++ {
		start := time.Now()
		if _, err := fn(); err != nil {
			return benchEntry{}, fmt.Errorf("%s: %w", name, err)
		}
		d := time.Since(start)
		elapsed += d
		if i == 0 || d < fastest {
			fastest = d
		}
	}
	runtime.ReadMemStats(&after)
	mb := float64(len(data)) / (1 << 20)
	return benchEntry{
		Name:        name,
		MBPerS:      round2(mb / fastest.Seconds()),
		MBPerSMean:  round2(mb * float64(iters) / elapsed.Seconds()),
		Ratio:       round3(ratio),
		AllocsPerOp: float64((after.Mallocs - before.Mallocs) / uint64(iters)),
		BytesPerOp:  float64((after.TotalAlloc - before.TotalAlloc) / uint64(iters)),
		Iterations:  iters,
	}, nil
}

func round2(v float64) float64 { return float64(int64(v*100+0.5)) / 100 }
func round3(v float64) float64 { return float64(int64(v*1000+0.5)) / 1000 }

// calibrate measures the machine-speed reference: best of seven
// calibrationAdler passes over the corpus, in MB/s.
func calibrate(data []byte) float64 {
	var fastest time.Duration
	for i := 0; i < 7; i++ {
		start := time.Now()
		calibrationAdler(data)
		d := time.Since(start)
		if i == 0 || d < fastest {
			fastest = d
		}
	}
	return round2(float64(len(data)) / (1 << 20) / fastest.Seconds())
}

// calibrationAdler is the byte-at-a-time Adler-32 loop the committed
// baselines' calibrations were measured with. The calibration keeps its
// own copy so that no change to the checksum package moves the scale
// the -compare gate applies to those baselines. It is not inlined, so
// the call, whose result calibrate discards, is not compiled away.
//
//go:noinline
func calibrationAdler(p []byte) uint32 {
	a, b := uint32(1), uint32(0)
	for len(p) > 0 {
		// Largest chunk for which b cannot overflow uint32 (zlib's NMAX).
		chunk := p
		if len(chunk) > 5552 {
			chunk = chunk[:5552]
		}
		for _, c := range chunk {
			a += uint32(c)
			b += a
		}
		a %= 65521
		b %= 65521
		p = p[len(chunk):]
	}
	return b<<16 | a
}

// regressionTolerance is the CI gate: a result more than this fraction
// slower (MB/s) than the same-named entry in the compared report fails.
const regressionTolerance = 0.10

// cacheSpeedupFloor is the hot-block serving gate: a content-addressed
// cache hit on the wiki block must beat recompressing it by at least
// this factor, or the report run fails.
const cacheSpeedupFloor = 10.0

// benchCacheServing measures serving a hot wiki block from the
// content-addressed result cache against the uncached zlib-stream
// compression it fronts, on the same bytes. The cached row is not a
// tautology — every hit still pays the SHA-256 content key over the
// full payload plus an LRU touch — so the gated factor is the real
// serving win a repeated hot object sees.
func benchCacheServing(data []byte, iters int) ([]benchEntry, error) {
	p := lzssfpga.HWSpeedParams()
	compute := func() ([]byte, error) { return lzssfpga.CompressParallel(data, p, 0, 0) }
	uncached, err := benchOne("uncached_zlib_wiki", data, iters, compute)
	if err != nil {
		return nil, err
	}
	// The budget is striped across 16 shards and a value must fit in one
	// shard's slice to be stored, so size it off the full payload.
	c := cache.New(cache.Config{MaxBytes: 16 * (int64(len(data)) + 1<<20)})
	ctx := context.Background()
	const fp = 0x62656e6368 // "bench": any constant fingerprint, one config in play
	// More iterations than the compression rows: a hit is orders of
	// magnitude faster, so the extra samples are nearly free and tighten
	// the fastest-iteration estimate. benchOne's warm-up call primes the
	// cache, making every timed iteration a hit. KeyFor runs inside the
	// timed closure: a real request hashes its payload every time.
	cached, err := benchOne("cached_hot_wiki", data, iters*8, func() ([]byte, error) {
		out, _, err := c.GetOrCompute(ctx, cache.KeyFor(data, fp, ""), compute, nil)
		return out, err
	})
	if err != nil {
		return nil, err
	}
	st := c.Stats()
	if st.Misses != 1 {
		return nil, fmt.Errorf("cached_hot_wiki ran %d compressions, want 1 (cache not serving the timed loop)", st.Misses)
	}
	if cached.MBPerS < cacheSpeedupFloor*uncached.MBPerS {
		return nil, fmt.Errorf("cached serving %.2f MB/s is under %.0fx the uncached %.2f MB/s",
			cached.MBPerS, cacheSpeedupFloor, uncached.MBPerS)
	}
	fmt.Printf("cache gate: hit %.2f MB/s vs compress %.2f MB/s (%.1fx, floor %.0fx)\n",
		cached.MBPerS, uncached.MBPerS, cached.MBPerS/uncached.MBPerS, cacheSpeedupFloor)
	return []benchEntry{uncached, cached}, nil
}

// levelTableLevels spans the dial for the ratio/throughput trade-off
// table: generation-two greedy (1, 3), chain-lazy (6, 9), and the
// suffix-array high-ratio tier (10-12).
var levelTableLevels = []lzssfpga.Level{1, 3, 6, 9, 10, 11, 12}

// benchLevelTable measures serial compression at each point of the
// level dial on a wiki slice — the serial_wiki_l<N> trajectory rows —
// and gates the suffix-array tier's reason to exist: every SA level's
// ratio must STRICTLY beat the level-9 chain matcher on the same
// bytes, or the report run fails. The slice is capped at 1 MiB because
// the SA tier trades throughput for ratio (~2.5 MB/s); the ratio is
// size-stable and the row exists for the trade-off curve, not for
// corpus-scaling behaviour.
func benchLevelTable(data []byte, iters int) ([]benchEntry, error) {
	if len(data) > 1<<20 {
		data = data[:1<<20]
	}
	var out []benchEntry
	var chainRatio float64 // level 9: best chain-matcher ratio
	for _, lvl := range levelTableLevels {
		lvl := lvl
		p := lzssfpga.LevelParams(lvl, 32768, 15)
		e, err := benchOne(fmt.Sprintf("serial_wiki_l%d", lvl), data, iters, func() ([]byte, error) {
			return lzssfpga.Compress(data, p)
		})
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		fmt.Printf("level table: l%-2d %8.2f MB/s  ratio %.3f  (%s)\n", lvl, e.MBPerS, e.Ratio, p.Tier())
		if lvl == 9 {
			chainRatio = e.Ratio
		}
		if lvl >= lzssfpga.LevelSAMin && e.Ratio <= chainRatio {
			return nil, fmt.Errorf("SA gate: level %d ratio %.3f does not beat level-9 ratio %.3f on wiki",
				lvl, e.Ratio, chainRatio)
		}
	}
	return out, nil
}

// cpuModel returns the host CPU model name, best-effort: the first
// "model name" line of /proc/cpuinfo, empty on any failure (non-Linux
// hosts, locked-down containers).
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return ""
}

// writeJSONReport benchmarks the software compression paths and writes
// the report to path. reg, when non-nil, is snapshotted into the
// report's metrics section after the timed runs. With sweep, the
// parallel paths are additionally measured at GOMAXPROCS 1/2/4/8
// (clamped to what the box can schedule is deliberately NOT done — a
// 1-core machine records honest non-scaling numbers), rebuilding the
// shared engine at each width so its worker count follows the setting.
func writeJSONReport(path string, bytes int, seed int64, sweep bool, reg *lzssfpga.MetricsRegistry) (*benchReport, error) {
	data := workload.Wiki(bytes, seed)
	rand := workload.Random(bytes, seed)
	p := lzssfpga.HWSpeedParams()
	fast := lzssfpga.SWFastParams()
	const iters = 5
	benches := []struct {
		name string
		data []byte
		fn   func() ([]byte, error)
	}{
		{"serial", data, func() ([]byte, error) { return lzssfpga.Compress(data, p) }},
		{"parallel", data, func() ([]byte, error) { return lzssfpga.CompressParallel(data, p, 0, 0) }},
		{"parallel_dict", data, func() ([]byte, error) { return compressCarry(data, p) }},
		// Generation-two hot path on the same wiki corpus.
		{"serial_fast", data, func() ([]byte, error) { return lzssfpga.Compress(data, fast) }},
		// Incompressible workload: serial_rand is the match-skip design
		// point, serial_rand_noskip the pre-skip generation-one matcher on
		// the same bytes — their ratio is the skip win, measured in-file so
		// the trajectory gates regressions on random input.
		{"serial_rand", rand, func() ([]byte, error) { return lzssfpga.Compress(rand, fast) }},
		{"serial_rand_noskip", rand, func() ([]byte, error) { return lzssfpga.Compress(rand, p) }},
		{"parallel_rand", rand, func() ([]byte, error) { return lzssfpga.CompressParallel(rand, fast, 0, 0) }},
	}
	rep := benchReport{
		Schema:     "lzssfpga-bench/2",
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Sweep:      sweep,
		Workload:   "wiki+rand",
		Bytes:      bytes,
		Seed:       seed,
		Baseline:   seedBaseline,
	}
	for _, b := range benches {
		e, err := benchOne(b.name, b.data, iters, b.fn)
		if err != nil {
			return nil, err
		}
		e.GOMAXPROCS = rep.GOMAXPROCS
		rep.Results = append(rep.Results, e)
	}
	// Hot-block serving: the cached row must clear cacheSpeedupFloor over
	// the uncached one or the whole report run fails.
	cacheRows, err := benchCacheServing(data, iters)
	if err != nil {
		return nil, err
	}
	for i := range cacheRows {
		cacheRows[i].GOMAXPROCS = rep.GOMAXPROCS
	}
	rep.Results = append(rep.Results, cacheRows...)
	// Level-dial trade-off table, with the SA-beats-chain ratio gate.
	levelRows, err := benchLevelTable(data, iters)
	if err != nil {
		return nil, err
	}
	for i := range levelRows {
		levelRows[i].GOMAXPROCS = rep.GOMAXPROCS
	}
	rep.Results = append(rep.Results, levelRows...)
	if sweep {
		entries, err := sweepParallel(data, p, iters)
		if err != nil {
			return nil, err
		}
		rep.Results = append(rep.Results, entries...)
	}
	rep.CalibMBPerS = calibrate(data)
	if reg != nil {
		rep.Metrics = reg.Snapshot()
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return nil, err
	}
	return &rep, nil
}

// compressCarry is the parallel_dict rows' call: default segments and
// workers with dictionary carry-over across the cuts.
func compressCarry(data []byte, p lzssfpga.Params) ([]byte, error) {
	z, _, err := lzssfpga.CompressParallelOpts(context.Background(), data, p, lzssfpga.ParallelOpts{Carry: true})
	return z, err
}

// sweepParallel measures the parallel paths at GOMAXPROCS 1/2/4/8,
// rebuilding the shared engine at each width (its worker count is fixed
// at engine construction) and restoring the original setting afterwards.
func sweepParallel(data []byte, p lzssfpga.Params, iters int) ([]benchEntry, error) {
	orig := runtime.GOMAXPROCS(0)
	defer func() {
		runtime.GOMAXPROCS(orig)
		lzssfpga.ResetParallelEngine()
	}()
	var out []benchEntry
	for _, procs := range []int{1, 2, 4, 8} {
		if procs == orig {
			// The default rows already measured this width; a duplicate
			// key would shadow it in -compare.
			continue
		}
		runtime.GOMAXPROCS(procs)
		lzssfpga.ResetParallelEngine()
		for _, b := range []struct {
			name string
			fn   func() ([]byte, error)
		}{
			{"parallel", func() ([]byte, error) { return lzssfpga.CompressParallel(data, p, 0, 0) }},
			{"parallel_dict", func() ([]byte, error) { return compressCarry(data, p) }},
		} {
			e, err := benchOne(b.name, data, iters, b.fn)
			if err != nil {
				return nil, err
			}
			e.GOMAXPROCS = procs
			out = append(out, e)
		}
	}
	return out, nil
}

// rowKey identifies a result row for comparison: name plus the
// GOMAXPROCS it was measured at, falling back to the report-level
// value for rows from reports that predate per-row recording. Gating
// a 4-core sweep row against a 1-core baseline row of the same name
// would manufacture fake regressions (or hide real ones).
func rowKey(rep *benchReport, e benchEntry) string {
	g := e.GOMAXPROCS
	if g == 0 {
		g = rep.GOMAXPROCS
	}
	return fmt.Sprintf("%s@p%d", e.Name, g)
}

// compareReports gates cur's results against the report at oldPath:
// every benchmark present in both (same name, same effective
// GOMAXPROCS) must be within regressionTolerance of the old MB/s.
// Benchmarks only on one side are reported but don't fail, so adding
// or retiring a configuration doesn't break the gate.
func compareReports(cur *benchReport, oldPath string) error {
	raw, err := os.ReadFile(oldPath)
	if err != nil {
		return err
	}
	var old benchReport
	if err := json.Unmarshal(raw, &old); err != nil {
		return fmt.Errorf("%s: %w", oldPath, err)
	}
	// Topology mismatch warns but never fails: comparing a 4-core run
	// against a 1-core trajectory point is often exactly what a hardware
	// upgrade looks like — the calibration scaling below absorbs
	// single-thread speed differences, and the reader decides what the
	// parallel rows mean.
	if old.NumCPU != 0 && cur.NumCPU != 0 && old.NumCPU != cur.NumCPU {
		fmt.Printf("compare: WARNING: num_cpu differs (%d now vs %d in %s); parallel rows are not like-for-like\n",
			cur.NumCPU, old.NumCPU, oldPath)
	}
	prev := make(map[string]benchEntry, len(old.Results))
	for _, e := range old.Results {
		prev[rowKey(&old, e)] = e
	}
	scale := 1.0
	if cur.CalibMBPerS > 0 && old.CalibMBPerS > 0 {
		scale = cur.CalibMBPerS / old.CalibMBPerS
		if scale > 1 {
			// One-sided scaling: the calibration exists so a slower CI box
			// doesn't read as a code regression. In the other direction it
			// is not trustworthy — the proxy (Adler-32) is memory-bandwidth
			// bound while compression is branch-bound, and on shared
			// containers the proxy has been observed to move 78% between
			// runs while compression moved 17%. Raising floors above what
			// any previous run actually measured manufactures fake
			// regressions, so a faster-looking box gates on raw baselines.
			fmt.Printf("compare: calibration %.2f MB/s now vs %.2f then reads faster; clamping scale %.3f -> 1.000 (floors stay at raw baselines)\n",
				cur.CalibMBPerS, old.CalibMBPerS, scale)
			scale = 1.0
		} else {
			fmt.Printf("compare: machine calibration %.2f MB/s now vs %.2f then: scaling baselines by %.3f\n",
				cur.CalibMBPerS, old.CalibMBPerS, scale)
		}
	}
	var regressions []string
	for _, e := range cur.Results {
		k := rowKey(cur, e)
		o, ok := prev[k]
		if !ok {
			fmt.Printf("compare: %-18s new benchmark, no baseline in %s\n", k, oldPath)
			continue
		}
		delete(prev, k)
		floor := o.MBPerS * scale * (1 - regressionTolerance)
		status := "ok"
		if e.MBPerS < floor {
			status = "REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: %.2f MB/s vs %.2f (floor %.2f)", k, e.MBPerS, o.MBPerS*scale, floor))
		}
		fmt.Printf("compare: %-18s %8.2f MB/s vs %8.2f baseline  %s\n", k, e.MBPerS, o.MBPerS*scale, status)
	}
	for name := range prev {
		fmt.Printf("compare: %-18s retired (present only in %s)\n", name, oldPath)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("throughput regressed >%d%% vs %s:\n\t%s",
			int(regressionTolerance*100), oldPath, strings.Join(regressions, "\n\t"))
	}
	return nil
}
