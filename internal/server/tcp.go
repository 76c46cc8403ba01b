package server

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ConnPolicy is the connection policy a TCPFront enforces on every
// framed-TCP connection. Zero fields select the defaults.
type ConnPolicy struct {
	// MaxRequestBytes caps one request's payload; a larger request is
	// answered StatusTooLarge and its connection closed (0 selects
	// 64 MiB).
	MaxRequestBytes int
	// MaxConnBytes caps the cumulative request payload of one
	// connection — a lifetime budget, after which the connection is
	// closed with StatusConnLimit (0 selects 1 GiB).
	MaxConnBytes int64
	// MaxPipelined bounds how many pipelined requests (wire messages
	// carrying the request-ID field) one connection may hold in flight;
	// beyond it further pipelined requests on that connection bounce
	// with StatusBusy (0 selects 32).
	MaxPipelined int
	// ReadTimeout bounds the idle wait for a request and, armed afresh,
	// the receive of one full message; WriteTimeout bounds writing one
	// full response (0 selects 30s / 60s).
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
}

func (p ConnPolicy) withDefaults() ConnPolicy {
	if p.MaxRequestBytes <= 0 {
		p.MaxRequestBytes = 64 << 20
	}
	if p.MaxConnBytes <= 0 {
		p.MaxConnBytes = 1 << 30
	}
	if p.MaxPipelined <= 0 {
		p.MaxPipelined = 32
	}
	if p.ReadTimeout <= 0 {
		p.ReadTimeout = 30 * time.Second
	}
	if p.WriteTimeout <= 0 {
		p.WriteTimeout = 60 * time.Second
	}
	return p
}

// Handler serves one fully received compress or decompress request and
// answers it through r. Pipelined requests are handled concurrently,
// each on its own goroutine; a plain request is handled on the
// connection's read loop, so plain responses keep request order.
type Handler func(r Reply, req *Message)

// Reply answers one request on the connection it arrived on.
type Reply struct {
	f   *TCPFront
	tc  *tcpConn
	req *Message
}

// Send writes the request's response, once per request: status and
// payload, stamped with traceID (empty sends no trace field), the
// request's ID when it was pipelined and, on StatusOK, its dictionary
// ID. A failed write breaks the connection.
func (r Reply) Send(status byte, payload []byte, traceID string) error {
	return r.f.write(r.tc, r.req, status, payload, traceID)
}

// TCPFront is the framed-TCP serving loop. lzssd serves its engine on
// it and the cluster front its routing tier; each supplies only a
// Handler. The loop owns the listener, the connection registry, the
// per-connection read loop with its drain poke, the ConnPolicy budgets
// (pipelined overflow bounces in-band with StatusBusy), serialized
// response writes stamped with the request ID, and the drain.
type TCPFront struct {
	h Handler
	p ConnPolicy

	ln       net.Listener
	acceptWG sync.WaitGroup // the accept loop
	connWG   sync.WaitGroup // connection loops (incl. their in-flight requests)

	mu    sync.Mutex
	conns map[*tcpConn]struct{}

	draining    atomic.Bool
	closed      atomic.Bool
	activeConns atomic.Int64
}

// NewTCPFront builds a front that serves every request with h under
// policy p. Nothing is bound until ListenTCP.
func NewTCPFront(h Handler, p ConnPolicy) *TCPFront {
	return &TCPFront{h: h, p: p.withDefaults(), conns: make(map[*tcpConn]struct{})}
}

// ActiveConns is the number of open connections.
func (f *TCPFront) ActiveConns() int64 { return f.activeConns.Load() }

// Draining reports whether Shutdown (or Close) has begun.
func (f *TCPFront) Draining() bool { return f.draining.Load() }

// ListenTCP binds addr (":0" picks a free port), serves the framed
// wire protocol on it and returns the bound address.
func (f *TCPFront) ListenTCP(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	f.ln = ln
	f.acceptWG.Add(1)
	go f.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (f *TCPFront) acceptLoop(ln net.Listener) {
	defer f.acceptWG.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return // listener closed (drain or Close)
		}
		if f.draining.Load() {
			c.Close()
			continue
		}
		tc := &tcpConn{c: c}
		f.mu.Lock()
		f.conns[tc] = struct{}{}
		f.mu.Unlock()
		n := f.activeConns.Add(1)
		if k := srvObs.Load(); k != nil {
			k.conns.Inc()
			k.activeConns.Set(float64(n))
		}
		f.connWG.Add(1)
		go f.serveConn(tc)
	}
}

func (f *TCPFront) dropConn(tc *tcpConn) {
	f.mu.Lock()
	delete(f.conns, tc)
	f.mu.Unlock()
	n := f.activeConns.Add(-1)
	if k := srvObs.Load(); k != nil {
		k.activeConns.Set(float64(n))
	}
	tc.c.Close()
}

// Shutdown is the graceful drain: close the listener, wake the
// connections parked between messages so they close, let every
// connection finish the message it is receiving and every request in
// flight, and force-close whatever remains when ctx expires. It returns
// nil when the drain completed within the deadline, ctx.Err() when it
// had to force.
func (f *TCPFront) Shutdown(ctx context.Context) error {
	if f.closed.Swap(true) {
		return nil
	}
	f.draining.Store(true)
	if f.ln != nil {
		f.ln.Close()
	}
	f.mu.Lock()
	for tc := range f.conns {
		tc.poke()
	}
	f.mu.Unlock()
	done := make(chan struct{})
	go func() {
		// The accept loop first: once it has exited, no connection can
		// join connWG behind the wait.
		f.acceptWG.Wait()
		f.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		f.mu.Lock()
		for tc := range f.conns {
			tc.c.Close()
		}
		f.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// Close tears the front down immediately: no grace for in-flight
// requests beyond what has already reached their sockets.
func (f *TCPFront) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f.Shutdown(ctx) //nolint:errcheck // ctx.Err() by construction
	return nil
}

// tcpConn wraps one wire-protocol connection with the drain
// coordination state: the drain only interrupts a connection that is
// parked between messages (receiving/serving connections finish their
// current request first), so "poke" must know which side of that line
// the connection is on. The mutex orders poke against the
// idle/receiving transitions; without it a poke racing beginReceive
// could shorten the deadline of a message already half-read.
type tcpConn struct {
	c net.Conn

	// wmu serializes response writes: pipelined requests complete
	// concurrently, and a response message must never interleave with
	// another one's bytes on the socket.
	wmu sync.Mutex
	// reqWG tracks pipelined requests in flight on this connection;
	// the read loop waits for it before the connection is dropped, so
	// a drain (or a client that stops sending) never cuts off a
	// response already being computed. pipelined is the same set as a
	// count, bounding how many goroutines one connection can hold.
	reqWG     sync.WaitGroup
	pipelined atomic.Int64
	// broken marks the connection poisoned server-side (a response
	// write failed): the read loop stops accepting further requests.
	broken atomic.Bool

	mu        sync.Mutex
	receiving bool
	poked     bool
}

// pastDeadline is any instant guaranteed to be in the past: setting it
// as the read deadline wakes a blocked read immediately.
var pastDeadline = time.Unix(1, 0)

// beginIdle parks the connection between messages: a poke that already
// arrived (or arrives from now on) fires the deadline immediately,
// otherwise the idle timeout applies.
func (tc *tcpConn) beginIdle(timeout time.Duration) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	tc.receiving = false
	if tc.poked {
		tc.c.SetReadDeadline(pastDeadline) //nolint:errcheck
		return
	}
	tc.c.SetReadDeadline(time.Now().Add(timeout)) //nolint:errcheck
}

// beginReceive marks the connection mid-message and arms the receive
// deadline; pokes from now on are deferred to the next idle point.
func (tc *tcpConn) beginReceive(timeout time.Duration) {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	tc.receiving = true
	tc.c.SetReadDeadline(time.Now().Add(timeout)) //nolint:errcheck
}

// poke wakes the connection if it is parked idle; a busy connection
// just has the flag recorded and closes at its next idle point.
func (tc *tcpConn) poke() {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	tc.poked = true
	if !tc.receiving {
		tc.c.SetReadDeadline(pastDeadline) //nolint:errcheck
	}
}

// serveConn is the per-connection loop: park until a message's first
// byte arrives, receive it whole, hand it to the handler, repeat —
// until the client closes, an error ends the conversation, the
// connection's lifetime byte budget runs out, or the drain catches the
// connection at an idle point.
//
// A request carrying the wire request-ID field is pipelined: it is
// handled on its own goroutine while the loop goes straight back to
// reading, so one connection holds many requests in flight and
// responses (stamped with the matching ID) go out in completion order.
// Requests without the field keep the strict serve-then-read sequence,
// so responses stay in request order for old clients.
func (f *TCPFront) serveConn(tc *tcpConn) {
	defer f.connWG.Done()
	defer f.dropConn(tc)
	// Flush in-flight pipelined responses before the connection drops
	// (defers run last-in first-out).
	defer tc.reqWG.Wait()
	br := bufio.NewReader(tc.c)
	var connBytes int64
	for {
		if f.draining.Load() && br.Buffered() == 0 || tc.broken.Load() {
			return
		}
		tc.beginIdle(f.p.ReadTimeout)
		if _, err := br.Peek(1); err != nil {
			// Idle timeout, drain poke, or the client closed — all end
			// the conversation without a request half-read.
			return
		}
		tc.beginReceive(f.p.ReadTimeout)
		msg, err := ReadMessage(br, f.p.MaxRequestBytes)
		if err != nil {
			// msg is the partly parsed header on a cap rejection, so the
			// answer carries the request ID; nil otherwise.
			countError()
			f.write(tc, msg, StatusFor(err), []byte(err.Error()), "") //nolint:errcheck
			return
		}
		connBytes += int64(len(msg.Payload))
		if connBytes > f.p.MaxConnBytes {
			countError()
			f.write(tc, msg, StatusConnLimit, //nolint:errcheck
				[]byte(fmt.Sprintf("connection exceeded its %d-byte budget", f.p.MaxConnBytes)), "")
			return
		}
		r := Reply{f: f, tc: tc, req: msg}
		if msg.HasReqID && tc.pipelined.Load() >= int64(f.p.MaxPipelined) {
			// Per-connection pipelining cap: bounce like the global
			// backpressure gate does — an immediate retryable busy, not
			// an invisible queue of goroutines.
			if k := srvObs.Load(); k != nil {
				k.busyRejects.Inc()
			}
			r.Send(StatusBusy, //nolint:errcheck // a failed write breaks the connection
				[]byte(fmt.Sprintf("connection exceeded its %d-request pipeline budget", f.p.MaxPipelined)), "")
			continue
		}
		if msg.Op != OpCompress && msg.Op != OpDecompress {
			countError()
			r.Send(StatusCorrupt, []byte("unexpected op: this endpoint serves requests"), "") //nolint:errcheck
			return
		}
		if !msg.HasReqID {
			f.h(r, msg)
			continue
		}
		tc.pipelined.Add(1)
		tc.reqWG.Add(1)
		go func() {
			defer tc.reqWG.Done()
			defer tc.pipelined.Add(-1)
			f.h(r, msg)
		}()
	}
}

// write sends one response message under the write deadline, stamped
// with traceID, with req's request ID when the request was pipelined
// (req is nil when the header never parsed) and, on success, with the
// negotiated dictionary ID — mirroring the HTTP front's X-Lzss-Dict
// response header. The per-connection write lock keeps concurrently
// completing pipelined responses from interleaving on the socket. A
// failed write leaves the outbound stream desynced mid-message, so it
// breaks the connection: the read loop is woken and takes no further
// request. Only a StatusOK payload that was written counts in
// server_response_bytes, as on the HTTP front.
func (f *TCPFront) write(tc *tcpConn, req *Message, status byte, payload []byte, traceID string) error {
	resp := &Message{Op: OpResponse, Status: status, Payload: payload, TraceID: traceID}
	if req != nil {
		resp.ReqID, resp.HasReqID = req.ReqID, req.HasReqID
		if status == StatusOK {
			resp.DictID = req.DictID
		}
	}
	tc.wmu.Lock()
	tc.c.SetWriteDeadline(time.Now().Add(f.p.WriteTimeout)) //nolint:errcheck
	err := WriteMessage(tc.c, resp)
	tc.wmu.Unlock()
	if err != nil {
		countError()
		tc.broken.Store(true)
		tc.poke()
		return err
	}
	if k := srvObs.Load(); k != nil && status == StatusOK {
		k.responseBytes.Observe(int64(len(payload)))
	}
	return nil
}

func countError() {
	if k := srvObs.Load(); k != nil {
		k.errors.Inc()
	}
}
