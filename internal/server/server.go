package server

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lzssfpga/internal/cache"
	"lzssfpga/internal/cache/dict"
	"lzssfpga/internal/deflate"
	"lzssfpga/internal/lzss"
	"lzssfpga/internal/obs"
)

// Config sizes and hardens a Server. The zero value is usable: paper
// speed parameters, default segmenting, and production-shaped caps.
type Config struct {
	// Params are the LZSS matching parameters (zero selects the paper's
	// speed-optimized HWSpeedParams).
	Params lzss.Params
	// LevelName labels the configured compression tier in request
	// traces and the /debug/requests inspector (lzssd sets it from
	// -level, e.g. "11" or "max"). Informational only: it does not
	// affect compression, nor the cache fingerprint. Empty selects
	// Params.Tier()'s matcher-family label.
	LevelName string
	// Segment is the parallel cut size (0 or less selects 256 KiB);
	// Workers caps each request's in-flight segments on the shared
	// engine (0 means GOMAXPROCS, or the engine's full width when
	// Resilient).
	Segment int
	Workers int

	// MaxRequestBytes caps one request's payload on both fronts (HTTP
	// 413 / wire StatusTooLarge above it; 0 selects 64 MiB).
	// MaxConnBytes caps the cumulative request payload of one TCP
	// connection — a lifetime budget, after which the connection is
	// closed with StatusConnLimit (0 selects 1 GiB).
	MaxRequestBytes int
	MaxConnBytes    int64
	// MaxInflight bounds concurrently served requests across both
	// fronts; beyond it requests bounce immediately with HTTP 429 /
	// StatusBusy rather than queueing (0 selects 2×GOMAXPROCS, floor 4).
	MaxInflight int
	// MaxPipelined bounds how many pipelined requests (wire messages
	// carrying the request-ID field) one TCP connection may hold in
	// flight; beyond it further pipelined requests on that connection
	// bounce with StatusBusy (0 selects 32).
	MaxPipelined int

	// ReadTimeout bounds both the idle wait for a request and the
	// receive of one full message; WriteTimeout bounds writing one full
	// response (0 selects 30s / 60s).
	ReadTimeout  time.Duration
	WriteTimeout time.Duration

	// Resilient runs every compression on both fronts — preset-dictionary
	// requests included — on deflate.ParallelCompress's hardened path
	// with its default budget (two retries per segment, no per-attempt
	// deadline): recovered worker panics, stored-block degradation —
	// always-valid output under a hostile runtime. SegmentHook is that
	// path's fault-injection seam (see internal/faultinject).
	Resilient   bool
	SegmentHook func(ctx context.Context, seg, attempt int) error

	// Decode bounds the /decompress path (zero selects MaxOutputBytes =
	// 16×MaxRequestBytes capped at 1 GiB, MaxBlocks = 1<<20).
	Decode deflate.DecodeLimits

	// CacheBytes, when positive, puts the content-addressed result
	// cache in front of the engine: compress responses are cached under
	// (payload hash, config fingerprint, dictionary ID) within this
	// byte budget, and concurrent misses on one key coalesce onto a
	// single engine pass. A custom Params.Hash silently disables the
	// cache — its effect on emitted bytes cannot be fingerprinted.
	CacheBytes int64
	// CacheVerify enables the cache's paranoid mode: every hit is
	// re-inflated and compared against the request payload before being
	// served (a corruption tripwire for burn-in, not a production
	// default).
	CacheVerify bool
	// Dicts is the preset-dictionary registry consulted by per-request
	// negotiation (HTTP X-Lzss-Dict, wire dict field). Nil rejects
	// every negotiation as unknown; dictionary-less requests are
	// unaffected.
	Dicts *dict.Registry

	// SlowLog, when positive, enables structured request logging: every
	// request slower than this threshold — and every failed request —
	// emits one logfmt line (trace ID, stage breakdown, sizes) to Log.
	// Zero disables logging entirely.
	SlowLog time.Duration
	// Log receives the slow/error lines (nil with SlowLog set selects
	// os.Stderr). Writes are serialized by the server; the writer itself
	// need not be concurrency-safe.
	Log io.Writer
}

// withDefaults resolves every zero field.
func (c Config) withDefaults() Config {
	if c.Params.Window == 0 {
		c.Params = lzss.HWSpeedParams()
	}
	if c.LevelName == "" {
		c.LevelName = c.Params.Tier()
	}
	p := c.connPolicy().withDefaults()
	c.MaxRequestBytes, c.MaxConnBytes, c.MaxPipelined = p.MaxRequestBytes, p.MaxConnBytes, p.MaxPipelined
	c.ReadTimeout, c.WriteTimeout = p.ReadTimeout, p.WriteTimeout
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2 * runtime.GOMAXPROCS(0)
		if c.MaxInflight < 4 {
			c.MaxInflight = 4
		}
	}
	if c.Decode == (deflate.DecodeLimits{}) {
		maxOut := 16 * c.MaxRequestBytes
		if maxOut > 1<<30 || maxOut < 0 {
			maxOut = 1 << 30
		}
		c.Decode = deflate.DecodeLimits{MaxOutputBytes: maxOut, MaxBlocks: 1 << 20}
	}
	if c.SlowLog > 0 && c.Log == nil {
		c.Log = os.Stderr
	}
	return c
}

// connPolicy is the framed-TCP front's share of the configuration.
func (c Config) connPolicy() ConnPolicy {
	return ConnPolicy{
		MaxRequestBytes: c.MaxRequestBytes,
		MaxConnBytes:    c.MaxConnBytes,
		MaxPipelined:    c.MaxPipelined,
		ReadTimeout:     c.ReadTimeout,
		WriteTimeout:    c.WriteTimeout,
	}
}

// Server is the long-running compression daemon: both fronts share one
// engine-slot gate and one drain state machine (serving → draining →
// drained); the framed-TCP front is a TCPFront running the engine
// handler.
type Server struct {
	cfg Config

	// slots is the backpressure gate: a request holds one slot for its
	// whole service time; an empty channel means at capacity.
	slots chan struct{}

	// cache is the content-addressed result cache (nil when disabled);
	// fp is this configuration's fingerprint — the Params component of
	// every cache key this server builds.
	cache *cache.Cache
	fp    uint64

	// popts is Config's share of every compression's engine options;
	// compress adds the request's dictionary and sink.
	popts deflate.ParallelOpts

	httpSrv *http.Server
	tcp     *TCPFront

	logMu sync.Mutex // serializes slow/error log lines onto cfg.Log

	draining atomic.Bool
	closed   atomic.Bool

	inflight atomic.Int64
}

// New builds a Server. Neither listener is bound yet — call ListenHTTP
// and/or ListenTCP.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		slots: make(chan struct{}, cfg.MaxInflight),
	}
	s.tcp = NewTCPFront(s.serveTCP, cfg.connPolicy())
	s.fp = configFingerprint(cfg)
	s.popts = deflate.ParallelOpts{
		Segment:     cfg.Segment,
		Workers:     cfg.Workers,
		Resilient:   cfg.Resilient,
		SegmentHook: cfg.SegmentHook,
	}
	if cfg.CacheBytes > 0 && !cfg.Params.HasCustomHash() {
		s.cache = cache.New(cache.Config{MaxBytes: cfg.CacheBytes})
	}
	return s, nil
}

// Config returns the resolved configuration (defaults applied).
func (s *Server) Config() Config { return s.cfg }

// Inflight is the number of requests currently holding an engine slot.
func (s *Server) Inflight() int64 { return s.inflight.Load() }

// ActiveConns is the number of open TCP protocol connections.
func (s *Server) ActiveConns() int64 { return s.tcp.ActiveConns() }

// Draining reports whether the drain state machine has left "serving".
func (s *Server) Draining() bool { return s.draining.Load() }

// admit is the first step of every request on both fronts. It resolves
// the request's dictionary before anything else, so an unknown one is a
// counted error wrapping ErrUnknownDict that takes no engine slot. Then
// it takes a slot without blocking and stamps the trace's slot wait; a
// full gate returns ErrBusy. Backpressure is deliberate rejection, not
// queueing: a client retry beats an invisible queue. On success the
// caller holds the slot and must release it.
func (s *Server) admit(rt *obs.RequestTrace, dictID string) ([]byte, error) {
	dictBytes, err := s.resolveDict(dictID)
	if err != nil {
		countError()
		return nil, err
	}
	select {
	case s.slots <- struct{}{}:
	default:
		if k := srvObs.Load(); k != nil {
			k.busyRejects.Inc()
		}
		return nil, ErrBusy
	}
	n := s.inflight.Add(1)
	if k := srvObs.Load(); k != nil {
		k.inflight.Set(float64(n))
		k.requests.Inc()
	}
	rt.SlotAcquired()
	return dictBytes, nil
}

// serve is the second step: it runs one admitted request, req, and is
// the only code that chooses how. It sets the trace's input size,
// registers the request with the inspector, which reads the trace's
// identity fields from then on, and observes server_request_bytes.
// Then it runs a decompress, charged to the compress stage; a compress
// streamed into w, when no cache is configured and the front passes a
// writer; or else a cached compress. A failure is counted in
// server_errors_total and recorded on the trace.
//
// out is the response payload for the front to write. sent counts the
// bytes serve streamed into w itself; a zlib stream is never empty, so
// sent is 0 exactly when the response is still the front's to write.
// start is when service began: after its response write the front
// measures the engine wall from it for finishRequest.
func (s *Server) serve(ctx context.Context, rt *obs.RequestTrace, req *Message, dictBytes []byte, w io.Writer) (out []byte, sent int64, start time.Time, err error) {
	rt.InBytes = int64(len(req.Payload))
	inspector.Load().Begin(rt)
	if k := srvObs.Load(); k != nil {
		k.requestBytes.Observe(rt.InBytes)
	}
	start = time.Now()
	switch {
	case req.Op == OpDecompress:
		out, err = s.decompressDict(req.Payload, dictBytes)
		rt.AddCompress(time.Since(start))
	case w != nil && s.cache == nil:
		tw := &timedWriter{w: w, rt: rt}
		err = s.compress(obs.ContextWithRequest(ctx, rt), req.Payload, dictBytes, tw)
		sent = tw.n
	default:
		out, err = s.compressCached(obs.ContextWithRequest(ctx, rt), req.Payload, req.DictID, dictBytes)
	}
	if err != nil {
		countError()
		rt.SetErr(err)
	}
	return out, sent, start, err
}

func (s *Server) release() {
	n := s.inflight.Add(-1)
	<-s.slots
	if k := srvObs.Load(); k != nil {
		k.inflight.Set(float64(n))
	}
}

// ListenHTTP binds addr (":0" picks a free port), serves the HTTP
// front on it and returns the bound address.
func (s *Server) ListenHTTP(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.httpSrv = &http.Server{
		Handler:           s.HTTPHandler(),
		ReadTimeout:       s.cfg.ReadTimeout,
		ReadHeaderTimeout: s.cfg.ReadTimeout,
		WriteTimeout:      s.cfg.WriteTimeout,
	}
	go s.httpSrv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on shutdown
	return ln.Addr().String(), nil
}

// ListenTCP binds addr, serves the framed wire protocol on it and
// returns the bound address.
func (s *Server) ListenTCP(addr string) (string, error) { return s.tcp.ListenTCP(addr) }

// Shutdown is the graceful drain: stop accepting on both fronts, let
// every in-flight request finish, and force-close whatever remains
// when ctx expires. It returns nil when the drain completed cleanly
// within the deadline. The state machine:
//
//	serving  --Shutdown-->  draining: listeners closed; idle TCP
//	                        connections poked awake and closed; busy
//	                        ones finish their current request; new
//	                        HTTP requests answer 503
//	draining --all done-->  drained (nil)
//	draining --ctx done-->  forced: remaining conns closed (ctx.Err())
func (s *Server) Shutdown(ctx context.Context) error {
	if s.closed.Swap(true) {
		return nil
	}
	start := time.Now()
	s.draining.Store(true)
	var httpErr error
	httpDone := make(chan struct{})
	go func() {
		defer close(httpDone)
		if s.httpSrv == nil {
			return
		}
		if httpErr = s.httpSrv.Shutdown(ctx); httpErr != nil {
			s.httpSrv.Close() // forced: sever what the deadline left
		}
	}()
	err := s.tcp.Shutdown(ctx)
	<-httpDone
	if k := srvObs.Load(); k != nil {
		k.drainNs.Set(float64(time.Since(start).Nanoseconds()))
	}
	if err == nil && !errors.Is(httpErr, http.ErrServerClosed) {
		err = httpErr
	}
	return err
}

// Close tears the server down immediately: no grace for in-flight
// requests beyond what has already reached their sockets.
func (s *Server) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.draining.Store(true)
	if s.httpSrv != nil {
		s.httpSrv.Close()
	}
	return s.tcp.Close()
}

// serveTCP is the framed front's engine handler: a new trace, admit,
// serve, the reply, finishRequest. Every response carries the
// server-assigned trace ID; admitted requests additionally appear in
// the /debug/requests inspector. Rejections and failures that keep the
// connection usable (busy, unknown dictionary, corrupt decompress
// input) are answered in-band.
func (s *Server) serveTCP(r Reply, msg *Message) {
	op := "compress"
	if msg.Op == OpDecompress {
		op = "decompress"
	}
	rt := obs.NewRequestTrace("tcp", op)
	rt.Level = s.cfg.LevelName
	dictBytes, err := s.admit(rt, msg.DictID)
	if err != nil {
		detail := err.Error()
		if errors.Is(err, ErrBusy) {
			detail = "server at capacity, retry"
		}
		respond(r, rt, StatusFor(err), []byte(detail)) //nolint:errcheck
		return
	}
	defer s.release()
	out, _, start, err := s.serve(context.Background(), rt, msg, dictBytes, nil)
	if err != nil {
		// Compress failures map to StatusInternal, bad decompress input
		// to StatusCorrupt; the connection stays usable either way.
		respond(r, rt, StatusFor(err), []byte(err.Error())) //nolint:errcheck
		s.finishRequest(rt, time.Since(start), 0)
		return
	}
	sent := int64(len(out))
	if err := respond(r, rt, StatusOK, out); err != nil {
		// The response never left: trace the failure, with no bytes out.
		rt.SetErr(err)
		sent = 0
	}
	s.finishRequest(rt, time.Since(start), sent)
}

// respond answers r stamped with rt's trace ID and charges the write
// to the trace's response_write stage.
func respond(r Reply, rt *obs.RequestTrace, status byte, payload []byte) error {
	start := time.Now()
	err := r.Send(status, payload, rt.ID)
	rt.AddWrite(time.Since(start))
	return err
}

// compress streams one request's payload through the shared engine
// into sink with the configured options: against dict when non-nil,
// resilient when configured. ctx carries the request trace and the
// cancellation of a vanished client.
func (s *Server) compress(ctx context.Context, data, dict []byte, sink io.Writer) error {
	o := s.popts
	o.Dict, o.Sink = dict, sink
	_, _, err := deflate.ParallelCompress(ctx, data, s.cfg.Params, o)
	return err
}
