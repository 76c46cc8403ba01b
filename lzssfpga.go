// Package lzssfpga is a faithful software reproduction of
// "A High-Performance FPGA-Based Implementation of the LZSS Compression
// Algorithm" (Shcherbakov, Weis, Wehn — IPDPS Workshops 2012).
//
// It bundles three things behind one API:
//
//   - a software LZSS + fixed-Huffman Deflate compressor producing
//     ZLib-compatible streams (Compress / Decompress);
//   - a cycle-accurate model of the paper's hardware architecture
//     (SimulateHardware), which emits the identical stream and a
//     per-state clock-cycle ledger;
//   - the design-space estimation machinery: FPGA resource prediction
//     (EstimateResources) and the testbench that reproduces the paper's
//     evaluation (see internal/estimator, internal/testbench and
//     cmd/lzssbench).
package lzssfpga

import (
	"context"
	"io"
	"net/http"
	"sync"

	"lzssfpga/internal/cache"
	"lzssfpga/internal/cache/dict"
	"lzssfpga/internal/cluster"
	"lzssfpga/internal/core"
	"lzssfpga/internal/deflate"
	"lzssfpga/internal/engine"
	"lzssfpga/internal/etherlink"
	"lzssfpga/internal/faultinject"
	"lzssfpga/internal/fpga"
	"lzssfpga/internal/logger"
	"lzssfpga/internal/lzss"
	"lzssfpga/internal/obs"
	"lzssfpga/internal/server"
	"lzssfpga/internal/token"
)

// Params are the LZSS matching parameters (window, hash, chain limits).
type Params = lzss.Params

// Level selects a software compression preset.
type Level = lzss.Level

// Software compression levels, mirroring ZLib's 1-9, plus the
// suffix-array high-ratio tier at 10-12 (same zlib output format).
const (
	LevelMin     = lzss.LevelMin
	LevelDefault = lzss.LevelDefault
	LevelMax     = lzss.LevelMax
	LevelSAMin   = lzss.LevelSAMin
	LevelSAMax   = lzss.LevelSAMax
)

// LevelParams returns the matching parameters of a preset level.
func LevelParams(level Level, window int, hashBits uint) Params {
	return lzss.LevelParams(level, window, hashBits)
}

// HWSpeedParams is the paper's speed-optimized setting (Table I):
// 4 KB dictionary, 15-bit hash, greedy matching.
func HWSpeedParams() Params { return lzss.HWSpeedParams() }

// SWFastParams is HWSpeedParams plus the generation-two software hot
// path (4-byte hash heads, match-skip acceleration, batched probe
// prefetch): the throughput design point for hosts that do not need the
// hardware model's bit-identical output.
func SWFastParams() Params { return lzss.SWFastParams() }

// SARatioParams is the suffix-array high-ratio preset for levels 10-12
// (clamped) at the full 32 KiB window: exact longest-match search over
// a sliding suffix-array index plus a cost-model optimal parse. The
// cold-storage complement of HWSpeedParams — slower, better ratio,
// same RFC 1950 zlib output.
func SARatioParams(level Level) Params { return lzss.SARatioParams(level) }

// Command is one LZSS decompressor command (literal or copy).
type Command = token.Command

// cmdPool recycles command-stream buffers across Compress calls. The
// command slice is an internal intermediate here (the caller only sees
// the ZLib bytes), and on incompressible input it runs to one command
// per byte — re-zeroing tens of megabytes per call is the single
// largest cost of the one-shot path without this.
var cmdPool = sync.Pool{New: func() any { return new([]token.Command) }}

// Compress runs the software LZSS with parameters p and returns a
// ZLib stream (RFC 1950, fixed-Huffman Deflate body) — the exact format
// the paper's hardware emits.
func Compress(data []byte, p Params) ([]byte, error) {
	bufp := cmdPool.Get().(*[]token.Command)
	cmds, _, err := lzss.CompressAppend((*bufp)[:0], data, p)
	if err != nil {
		cmdPool.Put(bufp)
		return nil, err
	}
	z, err := deflate.ZlibCompress(cmds, data, p.Window)
	*bufp = cmds
	cmdPool.Put(bufp)
	return z, err
}

// CompressCommands exposes the intermediate LZSS command stream.
func CompressCommands(data []byte, p Params) ([]Command, error) {
	cmds, _, err := lzss.Compress(data, p)
	return cmds, err
}

// Decompress decodes a ZLib stream (any Deflate block types, ours or a
// third party's) and verifies its Adler-32 checksum.
func Decompress(z []byte) ([]byte, error) {
	return deflate.ZlibDecompress(z)
}

// CompressBest is Compress with per-block format selection (stored /
// fixed / dynamic Huffman, whichever is smallest) — the ratio upgrade
// path the paper attributes to dynamic coders, traded against encoder
// complexity.
func CompressBest(data []byte, p Params) ([]byte, error) {
	cmds, _, err := lzss.Compress(data, p)
	if err != nil {
		return nil, err
	}
	return deflate.ZlibCompressBest(cmds, data, p.Window)
}

// StreamWriter is the streaming compressor handle: Write as much as
// needed, Flush to make everything written so far decodable (ZLib's
// sync flush), Close to finish the stream.
type StreamWriter interface {
	io.WriteCloser
	Flush() error
}

// NewWriter returns a streaming zlib compressor writing to w: an
// incremental LZSS stage with a sliding window feeding per-block
// fixed/dynamic Huffman coding. Close finishes the stream.
func NewWriter(w io.Writer, p Params) (StreamWriter, error) {
	return deflate.NewWriter(w, p)
}

// NewReader returns a streaming zlib decompressor reading from r. It
// verifies the Adler-32 trailer before reporting EOF.
func NewReader(r io.Reader) (io.Reader, error) {
	return deflate.NewReader(r)
}

// CompressParallel compresses data on the shared persistent engine,
// pigz-style: independent segments, deterministic output, standard
// zlib format. segment 0 (or less) selects 256 KiB; workers caps this
// call's in-flight segments, 0 means GOMAXPROCS. It is CompressParallelOpts with only those two options.
func CompressParallel(data []byte, p Params, segment, workers int) ([]byte, error) {
	z, _, err := deflate.ParallelCompress(context.Background(), data, p,
		deflate.ParallelOpts{Segment: segment, Workers: workers})
	return z, err
}

// ParallelOpts configures CompressParallelOpts: segmentation, worker
// budget, dictionary carry-over or a preset dictionary, a streaming
// sink, and the resilient path with its retry budget, per-attempt
// deadline and fault-injection hook.
type ParallelOpts = deflate.ParallelOpts

// ResilienceReport is the ledger of one parallel run: its segment
// count and, on the resilient path, retries, recovered panics and
// segments degraded to stored blocks.
type ResilienceReport = deflate.ResilienceReport

// CompressParallelOpts is the parallel compressor with every option:
// Carry presets each segment with its predecessor's window (pigz's
// default, recovering nearly all of the ratio segmenting loses); Dict
// compresses against a preset dictionary into an FDICT stream
// (DecompressDict decodes it); Sink streams the output in order as
// segments complete (the returned slice is then nil); Resilient
// recovers panicking workers, bounds attempts by deadline, self-checks
// each segment and degrades a segment that exhausts its retries to
// stored blocks instead of failing the stream. Output is deterministic
// for any worker count and identical on the fast and resilient paths.
// ctx cancellation stops the run and returns its error; a trace on ctx
// (TraceContext) records one span per segment.
func CompressParallelOpts(ctx context.Context, data []byte, p Params, o ParallelOpts) ([]byte, ResilienceReport, error) {
	return deflate.ParallelCompress(ctx, data, p, o)
}

// ResetParallelEngine closes the shared compression engine (draining
// queued jobs and stopping its workers) and lets the next parallel
// call rebuild it sized to the then-current GOMAXPROCS. It exists for
// GOMAXPROCS sweeps and goroutine-leak checks; it must not race
// in-flight CompressParallel or CompressParallelOpts calls.
func ResetParallelEngine() { deflate.ResetDefaultEngine() }

// CompressDict compresses data against a preset dictionary (RFC 1950
// FDICT): short blocks full of known boilerplate — an embedded logger's
// records — compress as if the window were already warm. Decode with
// DecompressDict (or any zlib given the same dictionary).
func CompressDict(data, dict []byte, p Params) ([]byte, error) {
	return deflate.ZlibCompressDict(data, dict, p)
}

// DecompressDict decodes a preset-dictionary zlib stream, verifying the
// DICTID against dict and the Adler-32 trailer against the output.
func DecompressDict(z, dict []byte) ([]byte, error) {
	return deflate.ZlibDecompressDict(z, dict)
}

// GzipCompress produces an RFC 1952 (.gz) stream; name, if non-empty,
// is stored as the original file name.
func GzipCompress(data []byte, p Params, name string) ([]byte, error) {
	return deflate.GzipCompress(data, p, name)
}

// GzipDecompress decodes an RFC 1952 stream, verifying CRC-32 and
// ISIZE, and returns the data and any stored name.
func GzipDecompress(z []byte) ([]byte, string, error) {
	return deflate.GzipDecompress(z)
}

// CompressSplit is CompressBest with adaptive block splitting: the
// command stream is cut wherever the symbol statistics shift, so mixed
// data (text then binary then noise) gets a fitting Huffman table per
// region.
func CompressSplit(data []byte, p Params) ([]byte, error) {
	cmds, _, err := lzss.Compress(data, p)
	if err != nil {
		return nil, err
	}
	return deflate.ZlibCompressSplit(cmds, data, p.Window)
}

// HWConfig is the hardware configuration: compile-time generics
// (dictionary size, hash bits, generation bits, head split, bus width)
// and run-time parameters of the modeled design.
type HWConfig = core.Config

// HWResult is the outcome of a hardware simulation: the command stream,
// the ZLib bytes, and the cycle ledger.
type HWResult = core.Result

// CycleStats is the per-state clock-cycle ledger (Fig 5 categories).
type CycleStats = core.CycleStats

// DefaultHWConfig returns the paper's Table I configuration.
func DefaultHWConfig() HWConfig { return core.DefaultConfig() }

// SimulateHardware runs data through the cycle-accurate model of the
// FPGA compressor and returns the stream plus cycle statistics.
func SimulateHardware(data []byte, cfg HWConfig) (*HWResult, error) {
	comp, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return comp.Compress(data)
}

// ResourceEstimate is the predicted FPGA cost of a configuration.
type ResourceEstimate = fpga.Estimate

// EstimateResources predicts LUT/register/block-RAM consumption of a
// hardware configuration (Table II's quantities).
func EstimateResources(cfg HWConfig) (ResourceEstimate, error) {
	return fpga.EstimateConfig(cfg)
}

// MetricsRegistry is the observability layer's named metric registry
// (see internal/obs): atomic counters, gauges and fixed-bucket
// histograms behind canonical lzss_*/deflate_*/core_* names, exposable
// as Prometheus text format and expvar JSON. A nil registry is the
// disabled state and costs nothing on the hot paths.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty enabled metrics registry. Wire it
// into every instrumented layer with EnableObservability and serve it
// with ServeMetrics.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// RequestTrace is one traced call's record (see internal/obs): a
// CompressParallelOpts run on a context from TraceContext records one
// span per segment into it. Finalize it after the call; WriteChromeTrace
// then renders the pipeline for chrome://tracing or Perfetto.
type RequestTrace = obs.RequestTrace

// TraceContext starts a trace and returns ctx carrying it.
func TraceContext(ctx context.Context) (context.Context, *RequestTrace) {
	rt := obs.NewRequestTrace("lib", "compress")
	return obs.ContextWithRequest(ctx, rt), rt
}

// EnableObservability points every instrumented layer (lzss matcher,
// deflate pipeline + streaming writer, compression engine, hardware
// cycle model, logger, etherlink, serving layer, cluster routing tier,
// result cache, dictionary registry) at reg. Pass nil to disable
// again.
// Instrumentation is compiled in but batched: hot loops count locally
// and flush deltas at block/segment granularity, so the enabled
// overhead on the compression hot path stays under 2%
// (BenchmarkObsOverhead pins this).
func EnableObservability(reg *MetricsRegistry) {
	lzss.SetObservability(reg)
	deflate.SetObservability(reg)
	engine.SetObservability(reg)
	core.SetObservability(reg)
	logger.SetObservability(reg)
	etherlink.SetObservability(reg)
	server.SetObservability(reg)
	cluster.SetObservability(reg)
	cache.SetObservability(reg)
	dict.SetObservability(reg)
	// Runtime self-telemetry (goroutines, heap, GC pauses) rides along
	// in the same registry, refreshed at scrape time.
	obs.RegisterRuntime(reg)
}

// ServeMetrics starts an HTTP server on addr (":0" picks a free port)
// exposing reg as Prometheus text format at /metrics, expvar-style
// JSON at /debug/vars, and the net/http/pprof pages at /debug/pprof/.
// It returns the server and the bound address.
func ServeMetrics(reg *MetricsRegistry, addr string) (*http.Server, string, error) {
	return obs.Serve(reg, addr)
}

// RequestInspector is the live request inspector behind /debug/requests
// (see internal/obs): the set of in-flight requests plus rings of the
// most recent and slowest completed ones, each with its trace ID and
// five-stage latency breakdown.
type RequestInspector = obs.Inspector

// NewRequestInspector returns an inspector with default ring sizes
// (64 recent, 32 slowest). Wire it into the serving layer with
// SetRequestInspector and expose it with ServeMetricsWith.
func NewRequestInspector() *RequestInspector { return obs.NewInspector() }

// SetRequestInspector points the serving layer's request tracing at in
// (nil disables): every request that acquires an engine slot on either
// front is registered while active and filed into the rings once its
// response is written.
func SetRequestInspector(in *RequestInspector) { server.SetInspector(in) }

// ServeMetricsWith is ServeMetrics plus the /debug/requests live
// request inspector (insp may be nil, which serves the metrics
// endpoints only).
func ServeMetricsWith(reg *MetricsRegistry, insp *RequestInspector, addr string) (*http.Server, string, error) {
	return obs.ServeWith(reg, insp, addr)
}

// DecodeLimits bounds what a decoder will do for untrusted input: a cap
// on decompressed size and on block count. The zero value of a field
// means unlimited; Decompress applies generous defaults.
type DecodeLimits = deflate.DecodeLimits

// DecompressLimited is Decompress with explicit resource bounds. It
// never panics on any input; rejections wrap deflate.ErrCorrupt, and
// truncations additionally match io.ErrUnexpectedEOF.
func DecompressLimited(z []byte, lim DecodeLimits) ([]byte, error) {
	return deflate.ZlibDecompressLimited(z, lim)
}

// FaultSpec declares seeded per-class fault-injection rates (frame
// drop/duplicate/reorder/flip/truncate, memory bit flips, worker
// panic/stall, stream corruption); see ParseFaultSpec for the string
// syntax shared with the CLIs' -faults flag.
type FaultSpec = faultinject.Spec

// FaultInjector applies a FaultSpec deterministically at the resilience
// seams: it is a transfer channel, a memory corrupter, a deflate
// segment hook and a stream corrupter, with an atomic ledger of what it
// injected.
type FaultInjector = faultinject.Injector

// Server is the long-running network compression daemon (cmd/lzssd):
// an HTTP front (streaming POST /compress, hardened POST /decompress)
// and a framed TCP front mirroring the paper's etherlink staging
// format, both multiplexing clients onto the shared persistent engine
// behind per-request/per-connection byte caps and a max-in-flight
// backpressure gate, with graceful drain on Shutdown.
type Server = server.Server

// ServerConfig sizes and hardens a Server; its zero value serves with
// the paper's speed parameters and production-shaped caps.
type ServerConfig = server.Config

// NewServer builds a Server; bind its fronts with ListenHTTP and/or
// ListenTCP.
func NewServer(cfg ServerConfig) (*Server, error) { return server.New(cfg) }

// Typed serving-layer errors: ErrServerBusy is the backpressure
// rejection (HTTP 429 / wire StatusBusy), ErrServerDraining the
// drain-time refusal (HTTP 503 / wire StatusDraining),
// ErrUnknownDict the deterministic rejection of a dictionary
// negotiation naming an unregistered ID (HTTP 400 / wire
// StatusUnknownDict).
var (
	ErrServerBusy     = server.ErrBusy
	ErrServerDraining = server.ErrDraining
	ErrUnknownDict    = server.ErrUnknownDict
)

// DictRegistry holds the named preset dictionaries a Server negotiates
// per request (ServerConfig.Dicts): HTTP X-Lzss-Dict header, framed
// TCP dict field, listed at GET /dicts.
type DictRegistry = dict.Registry

// NewDictRegistry returns an empty dictionary registry; register
// dictionaries with Add before serving.
func NewDictRegistry() *DictRegistry { return dict.NewRegistry() }

// NewBuiltinDictRegistry builds a registry holding the named built-in
// content-class dictionaries ("wiki", "can", "json"; empty selects
// all). Built-ins are trained deterministically from the workload
// generators, so every process resolves a class to byte-identical
// dictionary content — streams compressed on one node decode on any
// other.
func NewBuiltinDictRegistry(classes ...string) (*DictRegistry, error) {
	return dict.NewBuiltinRegistry(classes...)
}

// DictBuiltinClasses lists the built-in content-class names.
func DictBuiltinClasses() []string { return dict.BuiltinClasses() }

// ParseFaultSpec parses the -faults syntax: comma-separated key=value,
// e.g. "drop=0.05,flip=0.01,panic=0.1,seed=7". Keys: drop, dup,
// reorder, flip, trunc, mem, panic, stall, stallms, zflip, ztrunc, seed.
func ParseFaultSpec(s string) (FaultSpec, error) { return faultinject.ParseSpec(s) }

// NewFaultInjector builds the deterministic injector for a spec.
func NewFaultInjector(spec FaultSpec) *FaultInjector { return faultinject.New(spec) }
