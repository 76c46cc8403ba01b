// Command lzsszip compresses and decompresses files with the library's
// software LZSS + fixed-Huffman pipeline. Output is a standard ZLib
// (RFC 1950) stream, so `lzsszip -c file` produces data any zlib
// implementation can inflate, and `lzsszip -d` accepts streams produced
// by any zlib implementation (stored, fixed and dynamic blocks).
//
// Usage:
//
//	lzsszip -c [-level min|default|max] [-window N] [-o out] file
//	lzsszip -d [-o out] file.zz
//	lzsszip -t file.zz            # integrity test
//
// Observability: -metrics ADDR serves the library's metric registry
// (Prometheus text at /metrics, expvar JSON at /debug/vars, pprof at
// /debug/pprof/) for the duration of the run; -metricshold keeps the
// process alive after the run so a scraper can collect the final
// numbers. -trace PATH (with -c -p N) writes a Chrome trace-event JSON
// of the parallel pipeline stages, loadable in chrome://tracing.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"lzssfpga"
)

var (
	compress   = flag.Bool("c", false, "compress")
	decompress = flag.Bool("d", false, "decompress")
	test       = flag.Bool("t", false, "test integrity of a compressed file")
	out        = flag.String("o", "", "output path (default: input + .zz / stripped)")
	levelArg   = flag.String("level", "min", "compression level: min, default, max, or 1..12 (10-12 = suffix-array high-ratio tier)")
	window     = flag.Int("window", 32768, "dictionary size (power of two, <= 32768)")
	hashBits   = flag.Uint("hash", 15, "hash bit count")
	best       = flag.Bool("best", false, "pick stored/fixed/dynamic per block (smaller output)")
	parallel   = flag.Int("p", 0, "compress with N workers, pigz-style (0 = serial)")
	pdict      = flag.Bool("pdict", false, "with -p: carry the dictionary across segment cuts (better ratio)")
	gz         = flag.Bool("gz", false, "use the gzip (.gz) container instead of zlib")
	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile = flag.String("memprofile", "", "write a heap profile to this path on exit")
	metrics    = flag.String("metrics", "", "serve /metrics, /debug/vars and /debug/pprof/ on this address during the run")
	hold       = flag.Duration("metricshold", 0, "with -metrics: keep the endpoint up this long after the run")
	tracePath  = flag.String("trace", "", "with -c -p N: write a Chrome trace-event JSON of the pipeline stages")
	faultsArg  = flag.String("faults", "", "with -c -p N: inject seeded faults (e.g. \"panic=0.1,stall=0.05,stallms=50,seed=7\") and compress through the resilient pipeline")
	timeoutArg = flag.Duration("timeout", 0, "with -c -p N: overall deadline for the (resilient) parallel compression")
)

// tracer is non-nil when -trace is set; doCompress hands it to the
// parallel pipeline.
var tracer *lzssfpga.Tracer

func main() {
	flag.Parse()
	os.Exit(realMain())
}

// realMain returns the process exit code. Every failure path — the run
// itself, profile writes, the trace write, the metrics listener — both
// reports to stderr and turns the exit code non-zero, so scripts can
// trust `lzsszip && ...`.
func realMain() int {
	code := 0
	fail := func(prefix string, err error) {
		fmt.Fprintf(os.Stderr, "lzsszip: %s%v\n", prefix, err)
		code = 1
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail("", err)
			return code
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail("", err)
			return code
		}
		defer pprof.StopCPUProfile()
	}
	if *metrics != "" {
		reg := lzssfpga.NewMetricsRegistry()
		lzssfpga.EnableObservability(reg)
		defer lzssfpga.EnableObservability(nil)
		srv, bound, err := lzssfpga.ServeMetrics(reg, *metrics)
		if err != nil {
			fail("metrics: ", err)
			return code
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "lzsszip: metrics on http://%s/metrics\n", bound)
	}
	if *tracePath != "" {
		if !*compress || *parallel <= 0 || *gz {
			fail("", fmt.Errorf("-trace records the parallel pipeline: it requires -c -p N (and the zlib container)"))
			return code
		}
		tracer = lzssfpga.NewTracer()
	}
	if err := run(); err != nil {
		fail("", err)
	}
	if *tracePath != "" && code == 0 {
		if err := writeTrace(*tracePath); err != nil {
			fail("trace: ", err)
		}
	}
	if *memProfile != "" {
		if err := writeMemProfile(*memProfile); err != nil {
			fail("memprofile: ", err)
		}
	}
	if *metrics != "" && *hold > 0 {
		time.Sleep(*hold)
	}
	return code
}

func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	err = pprof.WriteHeapProfile(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = tracer.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func run() error {
	modes := 0
	for _, m := range []bool{*compress, *decompress, *test} {
		if m {
			modes++
		}
	}
	if modes != 1 || flag.NArg() != 1 {
		return fmt.Errorf("usage: lzsszip -c|-d|-t [options] <file>")
	}
	in := flag.Arg(0)
	data, err := os.ReadFile(in)
	if err != nil {
		return err
	}
	switch {
	case *compress:
		return doCompress(in, data)
	case *decompress:
		return doDecompress(in, data)
	default:
		return doTest(in, data)
	}
}

func levelParams() (lzssfpga.Params, error) {
	var lvl lzssfpga.Level
	switch *levelArg {
	case "min":
		lvl = lzssfpga.LevelMin
	case "default":
		lvl = lzssfpga.LevelDefault
	case "max":
		lvl = lzssfpga.LevelMax
	default:
		n, err := strconv.Atoi(*levelArg)
		if err != nil || n < int(lzssfpga.LevelMin) || n > int(lzssfpga.LevelSAMax) {
			return lzssfpga.Params{}, fmt.Errorf("unknown level %q (want min, default, max or 1..12)", *levelArg)
		}
		lvl = lzssfpga.Level(n)
	}
	return lzssfpga.LevelParams(lvl, *window, *hashBits), nil
}

func doCompress(in string, data []byte) error {
	p, err := levelParams()
	if err != nil {
		return err
	}
	if *pdict && *parallel <= 0 {
		return fmt.Errorf("-pdict requires -p N (dictionary carry-over is a parallel-segmentation mode)")
	}
	resilient := *faultsArg != "" || *timeoutArg > 0
	if resilient && (*parallel <= 0 || *gz) {
		return fmt.Errorf("-faults/-timeout drive the resilient parallel pipeline: they require -c -p N (and the zlib container)")
	}
	// Time only the compression phase: the input was already read and
	// the output is written after the clock stops, so the reported MB/s
	// is comparable with lzssbench (which never touches the filesystem)
	// instead of being dragged by disk speed.
	compressStart := time.Now()
	var z []byte
	switch {
	case *gz:
		z, err = lzssfpga.GzipCompress(data, p, filepath.Base(in))
	case *parallel > 0:
		z, err = compressParallel(data, p, resilient)
	case *best:
		z, err = lzssfpga.CompressBest(data, p)
	default:
		z, err = lzssfpga.Compress(data, p)
	}
	compressDur := time.Since(compressStart)
	if err != nil {
		return err
	}
	// Verify before writing: decompress and compare.
	var back []byte
	if *gz {
		back, _, err = lzssfpga.GzipDecompress(z)
	} else {
		back, err = lzssfpga.Decompress(z)
	}
	if err != nil {
		return fmt.Errorf("self-check failed: %v", err)
	}
	if len(back) != len(data) {
		return fmt.Errorf("self-check failed: decompressed %d bytes, expected %d", len(back), len(data))
	}
	dst := *out
	if dst == "" {
		if *gz {
			dst = in + ".gz"
		} else {
			dst = in + ".zz"
		}
	}
	if err := os.WriteFile(dst, z, 0o644); err != nil {
		return err
	}
	ratio := float64(len(data)) / float64(len(z))
	secs := compressDur.Seconds()
	if secs < 1e-9 {
		secs = 1e-9
	}
	mbps := float64(len(data)) / (1 << 20) / secs
	fmt.Printf("%s: %d -> %d bytes (ratio %.3f, %.2f MB/s compress) -> %s\n",
		in, len(data), len(z), ratio, mbps, dst)
	return nil
}

// compressParallel runs the parallel pipeline (-p, -pdict, -trace).
// resilient selects the panic-safe path, optionally under injected
// faults and an overall deadline, and reports what the recovery
// machinery absorbed.
func compressParallel(data []byte, p lzssfpga.Params, resilient bool) ([]byte, error) {
	ctx := context.Background()
	if *timeoutArg > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeoutArg)
		defer cancel()
	}
	opts := lzssfpga.ParallelOpts{Workers: *parallel, Carry: *pdict, Tracer: tracer, Resilient: resilient}
	var inj *lzssfpga.FaultInjector
	if *faultsArg != "" {
		spec, err := lzssfpga.ParseFaultSpec(*faultsArg)
		if err != nil {
			return nil, err
		}
		inj = lzssfpga.NewFaultInjector(spec)
		opts.SegmentHook = inj.SegmentHook
		opts.SegmentTimeout = spec.StallTimeout()
	}
	z, rep, err := lzssfpga.CompressParallelOpts(ctx, data, p, opts)
	if err != nil || !resilient {
		return z, err
	}
	fmt.Fprintf(os.Stderr, "lzsszip: resilience: %d segments, %d retries, %d panics recovered, %d degraded to stored\n",
		rep.Segments, rep.Retries, rep.PanicsRecovered, rep.Degraded)
	if inj != nil {
		fmt.Fprintf(os.Stderr, "lzsszip: faults injected: %s\n", inj.Stats().Describe())
	}
	return z, nil
}

func doDecompress(in string, data []byte) error {
	raw, err := decodeAny(data)
	if err != nil {
		return err
	}
	dst := *out
	if dst == "" {
		dst = strings.TrimSuffix(strings.TrimSuffix(in, ".zz"), ".gz")
		if dst == in {
			dst = in + ".out"
		}
	}
	if err := os.WriteFile(dst, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("%s: %d -> %d bytes -> %s\n", in, len(data), len(raw), dst)
	return nil
}

func doTest(in string, data []byte) error {
	raw, err := decodeAny(data)
	if err != nil {
		return fmt.Errorf("%s: CORRUPT: %v", in, err)
	}
	fmt.Printf("%s: OK (%d bytes, checksum verified)\n", in, len(raw))
	return nil
}

// decodeAny sniffs the container: gzip magic or zlib.
func decodeAny(data []byte) ([]byte, error) {
	if len(data) >= 2 && data[0] == 0x1F && data[1] == 0x8B {
		raw, _, err := lzssfpga.GzipDecompress(data)
		return raw, err
	}
	return lzssfpga.Decompress(data)
}
