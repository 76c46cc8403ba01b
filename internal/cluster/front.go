package cluster

import (
	"context"
	"errors"
	"time"

	"lzssfpga/internal/cache"
	"lzssfpga/internal/resilience"
	"lzssfpga/internal/server"
	"lzssfpga/internal/server/client"
)

// FrontConfig sizes the router's own framed-TCP front. The zero value
// is usable. MaxRequestBytes, ReadTimeout, WriteTimeout and
// MaxPipelined are the front's server.ConnPolicy, as lzssd's Config
// fields of the same names are lzssd's; each connection's lifetime
// byte budget is the policy default (1 GiB).
type FrontConfig struct {
	// MaxRequestBytes caps one inbound request payload (0 selects
	// 64 MiB).
	MaxRequestBytes int
	// ReadTimeout bounds the idle wait for a request and, armed afresh,
	// the receive of one message (0 selects 30s); WriteTimeout bounds
	// writing one response (0 selects 60s).
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// MaxPipelined bounds pipelined in-flight requests per inbound
	// connection (0 selects 32), mirroring the backend's budget.
	MaxPipelined int
	// CacheBytes, when positive, puts a content-addressed result cache
	// in front of routing: a repeated compress request is answered at
	// the routing tier without touching a backend, and concurrent
	// misses on one key coalesce onto a single routed request. The
	// cache key carries the request's dictionary ID; the fleet behind
	// the front is assumed configuration-homogeneous (all backends
	// compress identically), which is also what makes retry-on-
	// alternate transparent.
	CacheBytes int64
}

// Front serves the same framed wire protocol lzssd speaks, on the same
// serving loop (the embedded server.TCPFront supplies ListenTCP,
// Shutdown and Close), but instead of compressing locally it routes
// every request through the cluster: clients talk to one address and
// the fleet behind it drains, dies and recovers invisibly. Pipelined
// requests (wire request-ID field) are routed concurrently; plain
// requests keep strict request/response order.
type Front struct {
	*server.TCPFront

	c *Cluster

	// cache is the routing-tier result cache (nil when disabled).
	cache *cache.Cache
}

// NewFront wraps c in a framed-TCP front.
func NewFront(c *Cluster, cfg FrontConfig) *Front {
	f := &Front{c: c}
	if cfg.CacheBytes > 0 {
		f.cache = cache.New(cache.Config{MaxBytes: cfg.CacheBytes})
	}
	f.TCPFront = server.NewTCPFront(f.serve, server.ConnPolicy{
		MaxRequestBytes: cfg.MaxRequestBytes,
		MaxPipelined:    cfg.MaxPipelined,
		ReadTimeout:     cfg.ReadTimeout,
		WriteTimeout:    cfg.WriteTimeout,
	})
	return f
}

// frontFingerprint is the Params component of every cache key the
// routing tier builds. The front does not know the backends' engine
// configuration, so the fingerprint is a fleet-level constant — valid
// exactly as long as the homogeneity assumption above holds. Operators
// mixing differently-configured fleets behind one front must disable
// the front cache.
const frontFingerprint = 0x66726f6e742d7631 // "front-v1"

// CacheStats snapshots the routing-tier cache (zero Stats when no
// cache is configured).
func (f *Front) CacheStats() cache.Stats {
	if f.cache == nil {
		return cache.Stats{}
	}
	return f.cache.Stats()
}

// requestTimeout bounds one request's whole trip through the fleet,
// retries included.
const requestTimeout = 2 * time.Minute

// serve is the front's routing handler: it answers with the fleet's
// response, stamped with the backend's trace ID.
func (f *Front) serve(r server.Reply, msg *server.Message) {
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	out, traceID, err := f.route(ctx, msg)
	cancel()
	if err != nil {
		r.Send(statusOf(err), []byte(err.Error()), traceID) //nolint:errcheck
		return
	}
	r.Send(server.StatusOK, out, traceID) //nolint:errcheck
}

// route answers one request, consulting the routing-tier cache before
// the fleet. Only compress results are cached (a decompress is cheap
// relative to the routed hop, and its payloads rarely repeat). Only a
// routed request carries a backend trace ID: a hit never leaves the
// front, and a miss coalesced onto another's computation never runs
// its own closure, so both answer with an empty one.
func (f *Front) route(ctx context.Context, msg *server.Message) (out []byte, traceID string, err error) {
	if f.cache == nil || msg.Op != server.OpCompress {
		return f.c.DoDict(ctx, msg.Op, msg.Payload, msg.DictID)
	}
	key := cache.KeyFor(msg.Payload, frontFingerprint, msg.DictID)
	out, _, err = f.cache.GetOrCompute(ctx, key, func() ([]byte, error) {
		var cerr error
		out, traceID, cerr = f.c.DoDict(ctx, server.OpCompress, msg.Payload, msg.DictID)
		return out, cerr
	}, nil)
	return out, traceID, err
}

// statusOf maps a routing-tier error onto the wire status a client of
// the front sees: transport exhaustion — a poisoned backend connection
// or a spent attempt budget — reads as busy (retryable); everything
// else maps as lzssd maps it. A cap rejection keeps its class even
// wrapped in a poisoned connection: Mux poisons with the ReadMessage
// error of a response over MaxResp.
func statusOf(err error) byte {
	if !errors.Is(err, server.ErrTooLarge) &&
		(errors.Is(err, client.ErrConnPoisoned) || errors.Is(err, resilience.ErrBudgetExhausted)) {
		return server.StatusBusy
	}
	return server.StatusFor(err)
}
