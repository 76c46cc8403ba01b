package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lzssfpga/internal/cache"
	"lzssfpga/internal/resilience"
	"lzssfpga/internal/server"
	"lzssfpga/internal/server/client"
)

// FrontConfig sizes the router's own framed-TCP front. The zero value
// is usable.
type FrontConfig struct {
	// MaxRequestBytes caps one inbound request payload (0 selects
	// 64 MiB).
	MaxRequestBytes int
	// ReadTimeout bounds the idle wait for a request and the receive of
	// one message (0 selects 30s); RequestTimeout bounds one request's
	// whole trip through the fleet, retries included (0 selects 2m);
	// WriteTimeout bounds writing one response (0 selects 60s).
	ReadTimeout    time.Duration
	RequestTimeout time.Duration
	WriteTimeout   time.Duration
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

func (c FrontConfig) withDefaults() FrontConfig {
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 64 << 20
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 30 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Minute
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 60 * time.Second
	}
	if c.MaxPipelined <= 0 {
		c.MaxPipelined = 32
	}
	return c
}

// Front serves the same framed wire protocol lzssd speaks, but instead
// of compressing locally it routes every request through the cluster:
// clients talk to one address and the fleet behind it drains, dies and
// recovers invisibly. Pipelined requests (wire request-ID field) are
// routed concurrently; plain requests keep strict request/response
// order.
type Front struct {
	c   *Cluster
	cfg FrontConfig

	// cache is the routing-tier result cache (nil when disabled).
	cache *cache.Cache

	ln net.Listener
	wg sync.WaitGroup

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	draining atomic.Bool
	closed   atomic.Bool
}

// NewFront wraps c in a framed-TCP front.
func NewFront(c *Cluster, cfg FrontConfig) *Front {
	f := &Front{c: c, cfg: cfg.withDefaults(), conns: make(map[net.Conn]struct{})}
	if f.cfg.CacheBytes > 0 {
		f.cache = cache.New(cache.Config{MaxBytes: f.cfg.CacheBytes})
	}
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

// ListenTCP binds addr (":0" picks a free port), serves the front on
// it and returns the bound address.
func (f *Front) ListenTCP(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	f.ln = ln
	f.wg.Add(1)
	go f.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (f *Front) acceptLoop(ln net.Listener) {
	defer f.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		if f.draining.Load() {
			c.Close()
			continue
		}
		f.mu.Lock()
		f.conns[c] = struct{}{}
		f.mu.Unlock()
		f.wg.Add(1)
		go f.serveConn(c)
	}
}

// Shutdown drains the front: stop accepting, wake idle connections,
// let in-flight requests finish, force-close when ctx expires.
func (f *Front) Shutdown(ctx context.Context) error {
	if f.closed.Swap(true) {
		return nil
	}
	f.draining.Store(true)
	if f.ln != nil {
		f.ln.Close()
	}
	// Wake reads parked between messages; connections mid-request
	// finish serving first (their handlers hold the request until the
	// response is written).
	f.mu.Lock()
	for c := range f.conns {
		c.SetReadDeadline(time.Unix(1, 0)) //nolint:errcheck
	}
	f.mu.Unlock()
	done := make(chan struct{})
	go func() {
		f.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		f.mu.Lock()
		for c := range f.conns {
			c.Close()
		}
		f.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Close tears the front down immediately.
func (f *Front) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f.Shutdown(ctx) //nolint:errcheck
	return nil
}

func (f *Front) dropConn(c net.Conn) {
	f.mu.Lock()
	delete(f.conns, c)
	f.mu.Unlock()
	c.Close()
}

// frontConn is one inbound connection's write/pipeline state.
type frontConn struct {
	c         net.Conn
	wmu       sync.Mutex
	reqWG     sync.WaitGroup
	pipelined atomic.Int64
	broken    atomic.Bool
}

func (f *Front) serveConn(nc net.Conn) {
	defer f.wg.Done()
	defer f.dropConn(nc)
	fc := &frontConn{c: nc}
	defer fc.reqWG.Wait()
	br := bufio.NewReader(nc)
	for {
		if f.draining.Load() && br.Buffered() == 0 {
			return
		}
		if fc.broken.Load() {
			return
		}
		nc.SetReadDeadline(time.Now().Add(f.cfg.ReadTimeout)) //nolint:errcheck
		if f.draining.Load() {
			// Already poked: only drain what is buffered.
			nc.SetReadDeadline(time.Unix(1, 0)) //nolint:errcheck
		}
		msg, err := server.ReadMessage(br, f.cfg.MaxRequestBytes)
		if err != nil {
			if errors.Is(err, server.ErrCorrupt) {
				// msg is the partly parsed header on a cap rejection, so
				// the answer carries the request ID; nil otherwise.
				f.writeResponse(fc, msg, statusOf(err), []byte(err.Error())) //nolint:errcheck
			}
			return
		}
		if msg.HasReqID {
			if fc.pipelined.Load() >= int64(f.cfg.MaxPipelined) {
				// A failed bounce write leaves the outbound stream desynced
				// mid-message: stop reading, like any failed response write.
				if err := f.writeResponse(fc, msg, server.StatusBusy,
					[]byte(fmt.Sprintf("connection exceeded its %d-request pipeline budget", f.cfg.MaxPipelined))); err != nil {
					return
				}
				continue
			}
			fc.pipelined.Add(1)
			fc.reqWG.Add(1)
			go func(m *server.Message) {
				defer fc.reqWG.Done()
				defer fc.pipelined.Add(-1)
				if err := f.serveMessage(fc, m); err != nil {
					fc.broken.Store(true)
					fc.c.SetReadDeadline(time.Unix(1, 0)) //nolint:errcheck
				}
			}(msg)
			continue
		}
		if err := f.serveMessage(fc, msg); err != nil {
			return
		}
	}
}

// serveMessage routes one request through the fleet and writes the
// response (backend trace ID and the request's pipeline ID included).
// A non-nil return closes the inbound connection.
func (f *Front) serveMessage(fc *frontConn, msg *server.Message) error {
	if msg.Op != server.OpCompress && msg.Op != server.OpDecompress {
		f.writeResponse(fc, msg, server.StatusCorrupt, []byte("unexpected op: this endpoint serves requests")) //nolint:errcheck
		return fmt.Errorf("unexpected op %d", msg.Op)
	}
	ctx, cancel := context.WithTimeout(context.Background(), f.cfg.RequestTimeout)
	out, traceID, err := f.route(ctx, msg)
	cancel()
	if err != nil {
		resp := &server.Message{Op: server.OpResponse, Status: statusOf(err), Payload: []byte(err.Error()), TraceID: traceID}
		return f.writeMsg(fc, resp, msg)
	}
	resp := &server.Message{Op: server.OpResponse, Status: server.StatusOK, Payload: out, TraceID: traceID}
	if msg.DictID != "" {
		resp.DictID = msg.DictID
	}
	return f.writeMsg(fc, resp, msg)
}

// route answers one request, consulting the routing-tier cache before
// the fleet. Only compress results are cached (a decompress is cheap
// relative to the routed hop, and its payloads rarely repeat); a hit
// never leaves the front, and coalesced concurrent misses share the
// computing request's backend trace ID.
func (f *Front) route(ctx context.Context, msg *server.Message) (out []byte, traceID string, err error) {
	if f.cache == nil || msg.Op != server.OpCompress {
		return f.c.DoTracedDict(ctx, msg.Op, msg.Payload, msg.DictID)
	}
	key := cache.KeyFor(msg.Payload, frontFingerprint, msg.DictID)
	out, _, err = f.cache.GetOrCompute(ctx, key, func() ([]byte, error) {
		var cerr error
		out, traceID, cerr = f.c.DoTracedDict(ctx, server.OpCompress, msg.Payload, msg.DictID)
		return out, cerr
	}, nil)
	return out, traceID, err
}

func (f *Front) writeResponse(fc *frontConn, req *server.Message, status byte, payload []byte) error {
	return f.writeMsg(fc, &server.Message{Op: server.OpResponse, Status: status, Payload: payload}, req)
}

func (f *Front) writeMsg(fc *frontConn, resp, req *server.Message) error {
	if req != nil && req.HasReqID {
		resp.ReqID = req.ReqID
		resp.HasReqID = true
	}
	fc.wmu.Lock()
	defer fc.wmu.Unlock()
	fc.c.SetWriteDeadline(time.Now().Add(f.cfg.WriteTimeout)) //nolint:errcheck
	return server.WriteMessage(fc.c, resp)
}

// statusOf maps a routing-tier error onto the wire status a client of
// the front sees: deterministic rejections keep their class, transport
// exhaustion reads as busy (retryable), everything else internal.
func statusOf(err error) byte {
	switch {
	case errors.Is(err, server.ErrTooLarge):
		return server.StatusTooLarge
	case errors.Is(err, client.ErrConnPoisoned):
		return server.StatusBusy
	case errors.Is(err, resilience.ErrBudgetExhausted):
		return server.StatusBusy
	case errors.Is(err, server.ErrBusy):
		return server.StatusBusy
	case errors.Is(err, server.ErrDraining):
		return server.StatusDraining
	case errors.Is(err, server.ErrUnknownDict):
		return server.StatusUnknownDict
	case errors.Is(err, server.ErrCorrupt):
		return server.StatusCorrupt
	default:
		return server.StatusInternal
	}
}
