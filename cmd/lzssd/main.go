// Command lzssd is the long-running compression daemon: the persistent
// compression engine behind two network fronts.
//
//	lzssd -http :8390 -tcp :8391 -metrics :8392
//
// HTTP front (-http): POST /compress takes any request body (chunked or
// sized) and answers a standard zlib stream, streamed while later
// segments are still compressing; POST /decompress inflates a zlib
// stream through the hardened limited decoder; GET /healthz answers
// "ok" until a drain begins. TCP front (-tcp): a raw framed protocol
// mirroring the paper's etherlink staging format — sequence-numbered,
// FCS-checked frames of at most 1496 bytes (see internal/server and the
// client package internal/server/client).
//
// Production shape: per-request (-maxbody) and per-connection
// (-maxconn) byte caps, max-in-flight backpressure (-inflight; beyond
// it requests bounce with 429/StatusBusy), read/write deadlines, and a
// graceful drain on SIGINT/SIGTERM — stop accepting, finish in-flight
// requests, bounded by -drain. Exit code 0 means every accepted request
// was answered; 1 means the drain deadline forced connections closed.
//
// Hot-object serving: -cache-bytes N puts a content-addressed result
// cache in front of the engine — repeated compressions of one payload
// (same parameters, same dictionary) are answered from memory, and
// concurrent misses on a hot key coalesce onto a single engine pass
// (-cache-verify re-inflates every hit first, a burn-in tripwire).
// -dicts wiki,can,json (or "all") registers the built-in preset
// dictionaries, negotiated per request via the X-Lzss-Dict header /
// the wire dict field and listed at GET /dicts; a stream compressed
// against a dictionary carries its DICTID and decodes on any node
// holding the same registry. In cluster mode -cache-bytes moves the
// cache to the routing front, so a repeated hot block never touches a
// backend.
//
// Cluster mode (-cluster -backends a:8391/a:8390,b:8391/b:8390,...)
// turns lzssd into the routing front of a fleet instead of a local
// engine: the -tcp address serves the same framed protocol, but every
// request is consistent-hash-routed across the named backends over
// multiplexed connections, with per-backend circuit breakers, active
// /healthz probing (the optional /httpaddr half of each backend spec)
// plus passive busy/draining observation, and automatic
// retry-on-next-ring-alternate under a capped jittered backoff.
// The front runs the backends' framed serving loop, so it enforces
// the same per-connection limits: -maxbody, -readtimeout and
// -writetimeout, and the default pipelining (32 in flight) and
// lifetime (1 GiB) budgets. -maxconn and -inflight apply only to
// backends. SIGINT/SIGTERM drains the front exactly like a backend:
// stop accepting, finish routed in-flight requests within -drain, exit
// 0 "drained". The cluster_* metric family rides the same -metrics
// endpoint (lzssmon -watch renders it as a header line).
//
// Observability: -metrics ADDR serves the registry (Prometheus text at
// /metrics, expvar JSON at /debug/vars, pprof at /debug/pprof/, the
// live request inspector at /debug/requests) — scrape it with lzssmon,
// e.g. `lzssmon -addr ADDR -grep server_` or watch it live with
// `lzssmon -addr ADDR -watch 2s`. Every response carries its request's
// trace ID (HTTP: X-Lzss-Trace-Id header; TCP: the header trace field),
// keying into /debug/requests and the -slowlog lines: with
// -slowlog DUR, every request slower than DUR — and every failed
// request — logs one structured line with its trace ID and five-stage
// latency breakdown to stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lzssfpga"
	"lzssfpga/internal/cluster"
)

var (
	httpAddr = flag.String("http", ":8390", "HTTP front address (empty disables)")
	tcpAddr  = flag.String("tcp", ":8391", "framed TCP front address (empty disables)")
	metrics  = flag.String("metrics", "", "serve /metrics, /debug/vars and /debug/pprof/ on this address")

	levelArg = flag.String("level", "min", "compression level: min, default, max, or 1..12 (10-12 select the suffix-array high-ratio tier)")
	window   = flag.Int("window", 4096, "dictionary size (power of two, <= 32768)")
	hashBits = flag.Uint("hash", 15, "hash bit count")
	segment  = flag.Int("segment", 0, "parallel segment size in bytes (0 = 256 KiB)")
	workers  = flag.Int("workers", 0, "per-request in-flight segment cap (0 = engine width)")

	maxBody  = flag.Int("maxbody", 64<<20, "per-request payload cap in bytes")
	maxConn  = flag.Int64("maxconn", 1<<30, "per-TCP-connection lifetime payload cap in bytes (backends only: a -cluster front keeps the 1 GiB default)")
	inflight = flag.Int("inflight", 0, "max concurrently served requests (0 = 2×GOMAXPROCS; backends only)")

	readTimeout  = flag.Duration("readtimeout", 30*time.Second, "idle/receive deadline per request")
	writeTimeout = flag.Duration("writetimeout", 60*time.Second, "response write deadline")
	drain        = flag.Duration("drain", 15*time.Second, "graceful drain budget on SIGINT/SIGTERM")

	resilient = flag.Bool("resilient", false, "compress through the resilient pipeline (recovered panics, stored-block degradation)")
	faultsArg = flag.String("faults", "", "inject seeded worker faults (e.g. \"stall=0.2,stallms=50,seed=7\"); implies -resilient")

	slowLog = flag.Duration("slowlog", 0, "log requests slower than this (and every failed request) to stderr with trace ID and stage breakdown (0 disables)")

	cacheBytes  = flag.Int64("cache-bytes", 0, "content-addressed result cache budget in bytes (0 disables); in cluster mode the cache sits at the routing front")
	cacheVerify = flag.Bool("cache-verify", false, "paranoid cache mode: re-inflate every hit and compare before serving (burn-in tripwire)")
	dictsArg    = flag.String("dicts", "", "register built-in preset dictionaries: comma-separated classes (wiki,can,json) or \"all\"; negotiated per request via X-Lzss-Dict / the wire dict field")

	clusterMode = flag.Bool("cluster", false, "serve -tcp as a routing front across -backends instead of compressing locally")
	backendsArg = flag.String("backends", "", "cluster mode: comma-separated backends, each tcphost:port[/httphost:port] (the HTTP half enables active health probes)")
)

func main() {
	flag.Parse()
	os.Exit(realMain())
}

func realMain() int {
	if *clusterMode {
		return clusterMain()
	}
	params, err := level()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lzssd:", err)
		return 1
	}
	if *httpAddr == "" && *tcpAddr == "" {
		fmt.Fprintln(os.Stderr, "lzssd: nothing to serve: both -http and -tcp are empty")
		return 1
	}
	cfg := lzssfpga.ServerConfig{
		Params:          params,
		LevelName:       *levelArg,
		Segment:         *segment,
		Workers:         *workers,
		MaxRequestBytes: *maxBody,
		MaxConnBytes:    *maxConn,
		MaxInflight:     *inflight,
		ReadTimeout:     *readTimeout,
		WriteTimeout:    *writeTimeout,
		Resilient:       *resilient,
		SlowLog:         *slowLog,
		CacheBytes:      *cacheBytes,
		CacheVerify:     *cacheVerify,
	}
	if *dictsArg != "" {
		reg, err := dictRegistry()
		if err != nil {
			fmt.Fprintln(os.Stderr, "lzssd:", err)
			return 1
		}
		cfg.Dicts = reg
	}
	if *faultsArg != "" {
		spec, err := lzssfpga.ParseFaultSpec(*faultsArg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lzssd:", err)
			return 1
		}
		inj := lzssfpga.NewFaultInjector(spec)
		cfg.Resilient = true
		cfg.SegmentHook = inj.SegmentHook
	}
	srv, err := lzssfpga.NewServer(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lzssd:", err)
		return 1
	}
	if stop, ok := startMetrics(); !ok {
		return 1
	} else {
		defer stop()
	}
	// Catch the drain signals before announcing a listener: a SIGTERM
	// that arrived in between would kill the process undrained.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if *httpAddr != "" {
		bound, err := srv.ListenHTTP(*httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lzssd:", err)
			return 1
		}
		fmt.Printf("lzssd: http listening on %s\n", bound)
	}
	if *tcpAddr != "" {
		bound, err := srv.ListenTCP(*tcpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lzssd:", err)
			return 1
		}
		fmt.Printf("lzssd: tcp listening on %s\n", bound)
	}

	got := <-sig
	fmt.Printf("lzssd: %s — draining (budget %s)\n", got, *drain)
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "lzssd: drain incomplete:", err)
		return 1
	}
	fmt.Println("lzssd: drained")
	return 0
}

// startMetrics wires -metrics when set: registry, request inspector
// and the debug endpoint. ok=false means the address failed to bind
// (the error is already printed).
func startMetrics() (stop func(), ok bool) {
	if *metrics == "" {
		return func() {}, true
	}
	reg := lzssfpga.NewMetricsRegistry()
	lzssfpga.EnableObservability(reg)
	insp := lzssfpga.NewRequestInspector()
	lzssfpga.SetRequestInspector(insp)
	_, bound, err := lzssfpga.ServeMetricsWith(reg, insp, *metrics)
	if err != nil {
		lzssfpga.EnableObservability(nil)
		lzssfpga.SetRequestInspector(nil)
		fmt.Fprintln(os.Stderr, "lzssd:", err)
		return nil, false
	}
	fmt.Printf("lzssd: metrics listening on %s\n", bound)
	return func() {
		lzssfpga.EnableObservability(nil)
		lzssfpga.SetRequestInspector(nil)
	}, true
}

// clusterMain is the -cluster entrypoint: the same framed front on
// -tcp, but every request is routed across the -backends fleet.
func clusterMain() int {
	if *tcpAddr == "" {
		fmt.Fprintln(os.Stderr, "lzssd: cluster mode serves the framed protocol: -tcp must be set")
		return 1
	}
	specs, err := cluster.ParseBackends(*backendsArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lzssd:", err)
		return 1
	}
	stop, ok := startMetrics()
	if !ok {
		return 1
	}
	defer stop()
	c, err := cluster.New(cluster.Config{Backends: specs, MaxResp: *maxBody})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lzssd:", err)
		return 1
	}
	defer c.Close()
	front := cluster.NewFront(c, cluster.FrontConfig{
		MaxRequestBytes: *maxBody,
		ReadTimeout:     *readTimeout,
		WriteTimeout:    *writeTimeout,
		CacheBytes:      *cacheBytes,
	})
	sig := make(chan os.Signal, 1) // before the listener, as in realMain
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	bound, err := front.ListenTCP(*tcpAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lzssd:", err)
		return 1
	}
	fmt.Printf("lzssd: cluster front routing across %d backends\n", c.Members())
	fmt.Printf("lzssd: tcp listening on %s\n", bound)

	got := <-sig
	fmt.Printf("lzssd: %s — draining (budget %s)\n", got, *drain)
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := front.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "lzssd: drain incomplete:", err)
		return 1
	}
	fmt.Println("lzssd: drained")
	return 0
}

// dictRegistry builds the -dicts registry: built-in class names,
// comma-separated, or "all".
func dictRegistry() (*lzssfpga.DictRegistry, error) {
	if *dictsArg == "all" {
		return lzssfpga.NewBuiltinDictRegistry()
	}
	var classes []string
	for _, c := range strings.Split(*dictsArg, ",") {
		if c = strings.TrimSpace(c); c != "" {
			classes = append(classes, c)
		}
	}
	if len(classes) == 0 {
		return nil, fmt.Errorf("-dicts: no classes named (want e.g. %q or \"all\")",
			strings.Join(lzssfpga.DictBuiltinClasses(), ","))
	}
	return lzssfpga.NewBuiltinDictRegistry(classes...)
}

// level maps -level/-window/-hash onto matcher parameters. At the
// default 4 KiB window and 15-bit hash, "min" is HWSpeedParams, the
// paper's speed point (lzsszip's "min" is LevelParams(LevelMin, ...),
// which adds the generation-two features), and 10-12 are
// SARatioParams, the suffix-array tier at the full 32 KiB window. Every
// other level, and every level at another window or hash, is
// LevelParams at the given window and hash.
func level() (lzssfpga.Params, error) {
	switch *levelArg {
	case "min":
		if *window == 4096 && *hashBits == 15 {
			return lzssfpga.HWSpeedParams(), nil
		}
		return lzssfpga.LevelParams(lzssfpga.LevelMin, *window, *hashBits), nil
	case "default":
		return lzssfpga.LevelParams(lzssfpga.LevelDefault, *window, *hashBits), nil
	case "max":
		return lzssfpga.LevelParams(lzssfpga.LevelMax, *window, *hashBits), nil
	default:
		n, err := strconv.Atoi(*levelArg)
		if err != nil || n < int(lzssfpga.LevelMin) || n > int(lzssfpga.LevelSAMax) {
			return lzssfpga.Params{}, fmt.Errorf("unknown level %q (want min, default, max or 1..12)", *levelArg)
		}
		lvl := lzssfpga.Level(n)
		if lvl >= lzssfpga.LevelSAMin && *window == 4096 && *hashBits == 15 {
			return lzssfpga.SARatioParams(lvl), nil
		}
		return lzssfpga.LevelParams(lvl, *window, *hashBits), nil
	}
}
