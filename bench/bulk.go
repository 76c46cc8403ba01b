package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lzssfpga"
	"lzssfpga/internal/workload"
)

const (
	bulkSize  = 4 << 20  // bytes per buffer: the input size the rates are stated at
	bulkWrite = 64 << 10 // bytes per Write on the streaming writer
	bulkPiece = 256 << 10
	// coldProbeEnv, when set to a seed, turns the binary into one cold
	// bulk set-up: it compresses the first buffer once and prints the
	// seconds that took.
	coldProbeEnv = "LZSSBENCH_COLD_PROBE"
)

// hw is the level every workload uses: the paper's speed point, which
// is also lzssd's default.
var hw = lzssfpga.HWSpeedParams()

// bulkCall is one library entry point a bulk pass times.
type bulkCall struct {
	name string
	do   func([]byte) ([]byte, error)
}

// bulkCompressors are the compress calls of a pass, in order: the
// paper's serial pipeline (fixed Huffman), the parallel engine (dynamic
// Huffman per segment) and the streaming writer.
var bulkCompressors = []bulkCall{
	{"serial", func(b []byte) ([]byte, error) { return lzssfpga.Compress(b, hw) }},
	{"parallel", func(b []byte) ([]byte, error) { return lzssfpga.CompressParallel(b, hw, 0, 0) }},
	{"stream", streamCompress},
}

func streamCompress(b []byte) ([]byte, error) {
	var out bytes.Buffer
	w, err := lzssfpga.NewWriter(&out, hw)
	if err != nil {
		return nil, err
	}
	for off := 0; off < len(b); off += bulkWrite {
		if _, err := w.Write(b[off:min(off+bulkWrite, len(b))]); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// bulkCorpora are the paper's two corpora, one buffer each.
var bulkCorpora = []struct {
	name string
	gen  workload.Generator
}{{"wiki", workload.Wiki}, {"can", workload.CAN}}

// bulkBuffer is corpus k's buffer. It joins pieces generated from their
// own seeds, so that the quirks of one seed (the CAN message set, the
// wiki topics) average out.
func bulkBuffer(k int, seed int64) []byte {
	return pieces(bulkCorpora[k].gen, bulkSize, bulkPiece, subSeed(seed, k, 0))
}

// bulkCalls are the timed library calls in the order a run makes them,
// with each one's share of the run. The parallel calls set lat_p90_ms,
// which needs about 100 calls for ten beyond it; the serial and
// decompress calls set compress_mb_s and decompress_mb_s from the median
// call on each buffer; the stream writer sets no listed metric.
var bulkCalls = []struct {
	name  string
	share float64
}{{"serial", 0.25}, {"parallel", 0.4}, {"stream", 0.1}, {"decompress", 0.25}}

// bulkRounds is how many times a bulk run cycles through its calls, so
// that each call samples the whole run.
const bulkRounds = 3

// runBulk is one caller in a closed loop over the library. In each of
// the rounds, each call is made back to back for its share of the round,
// alternating the wiki and CAN buffers: the serial compressor,
// CompressParallel, the streaming writer, then DecompressLimited of the
// parallel stream.
func runBulk(c *config) (*outcome, error) {
	var setup, rss []float64
	var err error
	setupFactor := c.ref.around(func() { setup, rss, err = coldSetups(c.seed) })
	if err != nil {
		return nil, err
	}
	var names []string
	var bufs [][]byte
	for k, cp := range bulkCorpora {
		names = append(names, cp.name)
		bufs = append(bufs, bulkBuffer(k, c.seed))
	}
	o := &outcome{}
	// The first call of each compressor on each buffer is the warm-up and
	// the reference: checked with compress/zlib, then every later output
	// must repeat it byte for byte (all three are deterministic).
	refs := make([][][]byte, len(bufs))
	var raw, comp float64
	for i, b := range bufs {
		for _, call := range bulkCompressors {
			z, err := call.do(b)
			if err == nil {
				err = checkZlib(z, nil, b)
			}
			o.attempted++
			if err != nil {
				o.failed++
				o.mismatches++
				return o, fmt.Errorf("%s on %s: %w", call.name, names[i], err)
			}
			o.verified++
			refs[i] = append(refs[i], z)
			raw += float64(len(b))
			comp += float64(len(z))
		}
	}

	const serial, parallel, decompress = 0, 1, 3
	lim := lzssfpga.DecodeLimits{MaxOutputBytes: bulkSize}
	// Seconds per call, [call][buffer]: as measured, and scaled by the
	// reference job run right after the call.
	times, scaled := make([][][]float64, len(bulkCalls)), make([][][]float64, len(bulkCalls))
	for k := range times {
		times[k], scaled[k] = make([][]float64, len(bufs)), make([][]float64, len(bufs))
	}
	for r := 0; r < bulkRounds; r++ {
		for k, call := range bulkCalls {
			d := time.Duration(call.share * float64(c.run) / bulkRounds)
			t0 := time.Now()
			// The first call on each buffer is untimed: the entry points keep
			// their buffers and matchers in sync.Pools, which the other
			// calls' garbage collections empty, and a loop of one call runs
			// with them filled.
			for j := 0; j < 2*len(bufs) || time.Since(t0) < d; j++ {
				i := j % len(bufs)
				var out []byte
				var err error
				took := c.trace.timed("api", call.name, 0, func() {
					if k == decompress {
						out, err = lzssfpga.DecompressLimited(refs[i][parallel], lim)
					} else {
						out, err = bulkCompressors[k].do(bufs[i])
					}
				})
				want := bufs[i]
				if k != decompress {
					want = refs[i][k]
				}
				o.attempted++
				if err != nil || !bytes.Equal(out, want) {
					o.failed++
					o.mismatches++
					continue
				}
				o.verified++
				if j >= len(bufs) {
					times[k][i] = append(times[k][i], took.Seconds())
					scaled[k][i] = append(scaled[k][i], took.Seconds()*c.ref.factor())
				}
			}
		}
	}

	// rate is a call's MB/s on both buffers: their bytes over the sum of
	// each buffer's median call, so the mix of corpora is fixed however
	// many calls each got.
	rate := func(ts [][]float64) float64 {
		var n, secs float64
		for i, b := range bufs {
			n += float64(len(b))
			secs += summarize(ts[i]).p50
		}
		return n / secs / (1 << 20)
	}
	pooledCalls := func(ts [][]float64) dist {
		return summarize(append(append([]float64(nil), ts[0]...), ts[1]...))
	}
	lat, rawLat := pooledCalls(scaled[parallel]), pooledCalls(times[parallel])
	o.e2e = map[string]float64{
		"setup_s":         summarize(setup).p50 * setupFactor,
		"compress_mb_s":   rate(scaled[serial]),
		"decompress_mb_s": rate(scaled[decompress]),
		"ratio":           raw / comp,
		"lat_p50_ms":      1e3 * lat.p50,
		"lat_p90_ms":      1e3 * lat.p90,
		"peak_rss_mb":     summarize(rss).p50,
	}
	o.raw = map[string]float64{
		"setup_s":         summarize(setup).p50,
		"compress_mb_s":   rate(times[serial]),
		"decompress_mb_s": rate(times[decompress]),
		"lat_p50_ms":      1e3 * rawLat.p50,
		"lat_p90_ms":      1e3 * rawLat.p90,
	}

	fmt.Printf("per-call rates at %d MiB (MB/s = 2^20 B/s, scaled to the reference; median [quartiles], as measured, n calls):\n", bulkSize>>20)
	for k, call := range bulkCalls {
		for i, name := range names {
			d := summarize(scaled[k][i])
			mb := float64(len(bufs[i])) / (1 << 20)
			fmt.Printf("  %-10s %-4s %7.2f [%7.2f %7.2f]  measured %7.2f  n=%d\n",
				call.name, name, mb/d.p50, mb/d.p75, mb/d.p25, mb/summarize(times[k][i]).p50, d.n)
		}
		fmt.Printf("  %-10s both %7.2f  measured %7.2f MB/s\n", call.name, rate(scaled[k]), rate(times[k]))
	}
	o.how = map[string]string{
		"setup_s":         fmt.Sprintf("cold first CompressParallel, median of n=%d processes", len(setup)),
		"compress_mb_s":   fmt.Sprintf("serial Compress (the paper's pipeline), median call on each buffer, n=%d", len(times[serial][0])+len(times[serial][1])),
		"decompress_mb_s": fmt.Sprintf("DecompressLimited of the parallel stream, median call on each buffer, n=%d", len(times[decompress][0])+len(times[decompress][1])),
		"ratio":           "serial, parallel and stream outputs of both buffers",
		"lat_p50_ms":      fmt.Sprintf("CompressParallel per 4 MiB call, n=%d", lat.n),
		"lat_p90_ms":      fmt.Sprintf("CompressParallel per 4 MiB call, n=%d", lat.n),
		"peak_rss_mb":     fmt.Sprintf("VmHWM of the cold set-up process, median of n=%d", len(rss)),
	}
	printE2E(o)

	if c.trace != nil {
		var streams [][]byte
		for i := range bufs {
			streams = append(streams, refs[i][parallel])
		}
		lc, err := measureLayers(c.trace, c.ref, probeSet{compress: bufs, streams: streams, dicts: make([][]byte, len(streams))})
		if err != nil {
			return o, err
		}
		o.layers = lc.metrics()
		addLadder(o.layers, "serial Compress", 1e9/(o.e2e["compress_mb_s"]*(1<<20)), []term{
			{"lzss", lc.lzss}, {"deflate.fixed", lc.fixed}, {"checksum.adler", lc.adler},
		}, "fresh matcher tables, command-buffer pooling and zlib framing in the serial entry point")
		o.layers["loadgen.sent"] = metric{float64(o.attempted), "count"}
		printMetrics("per-layer metrics:", o.layers)
	}
	return o, nil
}

// coldSetups runs the bulk set-up in fresh processes: each pays for
// building the engine and filling its pools on the first
// CompressParallel call. It returns their times and peak RSS in MiB.
func coldSetups(seed int64) (secs, rssMiB []float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < setups; i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), coldProbeEnv+"="+strconv.FormatInt(seed, 10))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, nil, fmt.Errorf("cold set-up process: %w", err)
		}
		s, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return nil, nil, fmt.Errorf("cold set-up process printed %q", out)
		}
		secs = append(secs, s)
		rssMiB = append(rssMiB, maxRSS(cmd.ProcessState))
	}
	return secs, rssMiB, nil
}

// coldProbe is the body of one cold set-up process.
func coldProbe(seedArg string) int {
	seed, err := strconv.ParseInt(seedArg, 10, 64)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: cold probe seed:", err)
		return 2
	}
	b := bulkBuffer(0, seed)
	t := time.Now()
	if _, err := lzssfpga.CompressParallel(b, hw, 0, 0); err != nil {
		fmt.Fprintln(os.Stderr, "bench: cold probe:", err)
		return 1
	}
	fmt.Println(time.Since(t).Seconds())
	return 0
}

// maxRSS is a finished process's peak resident set (VmHWM) in MiB.
func maxRSS(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}
