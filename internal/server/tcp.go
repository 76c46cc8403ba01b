package server

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lzssfpga/internal/obs"
)

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
	// write failed, or a pipelined request hit protocol misuse): the
	// read loop stops accepting further requests.
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
// byte arrives, receive it whole, serve it, respond, repeat — until
// the client closes, an error ends the conversation, the connection's
// lifetime byte budget runs out, or the drain catches the connection
// at an idle point.
//
// A request carrying the wire request-ID field is pipelined: it is
// served on its own goroutine while the loop goes straight back to
// reading, so one connection holds many requests in flight and
// responses (stamped with the matching ID) go out in completion order.
// Requests without the field keep the strict serve-then-read sequence,
// so responses stay in request order for old clients.
func (s *Server) serveConn(tc *tcpConn) {
	defer s.connWG.Done()
	defer s.dropConn(tc)
	// Flush in-flight pipelined responses before the connection drops
	// (defers run last-in first-out).
	defer tc.reqWG.Wait()
	br := bufio.NewReader(tc.c)
	var connBytes int64
	for {
		if s.draining.Load() && br.Buffered() == 0 {
			return
		}
		if tc.broken.Load() {
			return
		}
		tc.beginIdle(s.cfg.ReadTimeout)
		if _, err := br.Peek(1); err != nil {
			// Idle timeout, drain poke, or the client closed — all end
			// the conversation without a request half-read.
			return
		}
		tc.beginReceive(s.cfg.ReadTimeout)
		msg, err := ReadMessage(br, s.cfg.MaxRequestBytes)
		if err != nil {
			s.countError()
			s.writeResponse(tc, nil, msg, statusFor(err), []byte(err.Error())) //nolint:errcheck
			return
		}
		connBytes += int64(len(msg.Payload))
		if connBytes > s.cfg.MaxConnBytes {
			s.countError()
			s.writeResponse(tc, nil, msg, StatusConnLimit, //nolint:errcheck
				[]byte(fmt.Sprintf("connection exceeded its %d-byte budget", s.cfg.MaxConnBytes)))
			return
		}
		if msg.HasReqID {
			if tc.pipelined.Load() >= int64(s.cfg.MaxPipelined) {
				// Per-connection pipelining cap: bounce like the global
				// backpressure gate does — an immediate retryable busy,
				// not an invisible queue of goroutines.
				if k := srvObs.Load(); k != nil {
					k.busyRejects.Inc()
				}
				// A failed bounce write leaves the outbound stream desynced
				// mid-message: stop reading, like any failed response write.
				if err := s.writeResponse(tc, nil, msg, StatusBusy,
					[]byte(fmt.Sprintf("connection exceeded its %d-request pipeline budget", s.cfg.MaxPipelined))); err != nil {
					return
				}
				continue
			}
			tc.pipelined.Add(1)
			tc.reqWG.Add(1)
			go func(m *Message) {
				defer tc.reqWG.Done()
				defer tc.pipelined.Add(-1)
				if err := s.serveMessage(tc, m); err != nil {
					// The connection is unusable (failed response write
					// or protocol misuse): stop the read loop and wake it
					// if it is parked.
					tc.broken.Store(true)
					tc.poke()
				}
			}(msg)
			continue
		}
		if err := s.serveMessage(tc, msg); err != nil {
			return
		}
	}
}

// serveMessage handles one fully received request and writes its
// response. A non-nil return closes the connection (protocol misuse or
// a failed response write); protocol-level failures that keep the
// connection usable (busy, corrupt decompress input) are reported to
// the client in-band and return nil. Every response to a well-formed
// request carries the server-assigned trace ID; requests that acquired
// an engine slot additionally appear in the /debug/requests inspector.
func (s *Server) serveMessage(tc *tcpConn, msg *Message) error {
	if msg.Op != OpCompress && msg.Op != OpDecompress {
		s.countError()
		s.writeResponse(tc, nil, msg, StatusCorrupt, []byte("unexpected op: this endpoint serves requests")) //nolint:errcheck
		return fmt.Errorf("unexpected op %d", msg.Op)
	}
	op := "compress"
	if msg.Op == OpDecompress {
		op = "decompress"
	}
	rt := obs.NewRequestTrace("tcp", op)
	rt.Level = s.cfg.LevelName
	rt.InBytes = int64(len(msg.Payload))
	// Resolve the dictionary negotiation before taking an engine slot:
	// an unknown ID is a deterministic client error that should not
	// consume capacity.
	dictBytes, derr := s.resolveDict(msg.DictID)
	if derr != nil {
		s.countError()
		rt.SetErr(derr)
		return s.writeResponse(tc, rt, msg, StatusUnknownDict, []byte(derr.Error()))
	}
	if !s.acquire() {
		return s.writeResponse(tc, rt, msg, StatusBusy, []byte("server at capacity, retry"))
	}
	defer s.release()
	rt.SlotAcquired()
	beginRequest(rt)
	if k := srvObs.Load(); k != nil {
		k.requestBytes.Observe(int64(len(msg.Payload)))
	}
	ctx := obs.ContextWithRequest(context.Background(), rt)
	svcStart := time.Now()
	var out []byte
	var err error
	switch msg.Op {
	case OpCompress:
		out, err = s.compressCached(ctx, msg.Payload, msg.DictID, dictBytes)
		if err != nil {
			s.countError()
			rt.SetErr(err)
			werr := s.writeResponse(tc, rt, msg, StatusInternal, []byte(err.Error()))
			s.finishRequest(rt, time.Since(svcStart), 0)
			return werr
		}
	case OpDecompress:
		decStart := time.Now()
		out, err = s.decompressDict(msg.Payload, dictBytes)
		rt.AddCompress(time.Since(decStart))
		if err != nil {
			// The client's stream was bad; the connection is fine.
			s.countError()
			rt.SetErr(err)
			werr := s.writeResponse(tc, rt, msg, statusFor(err), []byte(err.Error()))
			s.finishRequest(rt, time.Since(svcStart), 0)
			return werr
		}
	}
	werr := s.writeResponse(tc, rt, msg, StatusOK, out)
	rt.SetErr(werr)
	s.finishRequest(rt, time.Since(svcStart), int64(len(out)))
	return werr
}

// writeResponse sends one response message under the write deadline,
// stamped with rt's trace ID (rt may be nil for protocol-level errors
// that never had a request to trace) and with req's request ID when
// the request was pipelined (req may be nil when the header never
// parsed). The per-connection write lock keeps concurrently completing
// pipelined responses from interleaving on the socket.
func (s *Server) writeResponse(tc *tcpConn, rt *obs.RequestTrace, req *Message, status byte, payload []byte) error {
	if k := srvObs.Load(); k != nil {
		k.responseBytes.Observe(int64(len(payload)))
	}
	resp := &Message{Op: OpResponse, Status: status, Payload: payload}
	if rt != nil {
		resp.TraceID = rt.ID
	}
	if req != nil && req.HasReqID {
		resp.ReqID = req.ReqID
		resp.HasReqID = true
	}
	// Echo the negotiated dictionary ID on success, mirroring the HTTP
	// front's X-Lzss-Dict response header.
	if req != nil && req.DictID != "" && status == StatusOK {
		resp.DictID = req.DictID
	}
	start := time.Now()
	tc.wmu.Lock()
	tc.c.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout)) //nolint:errcheck
	err := WriteMessage(tc.c, resp)
	tc.wmu.Unlock()
	rt.AddWrite(time.Since(start))
	if err != nil {
		s.countError()
		return err
	}
	return nil
}

func (s *Server) countError() {
	if k := srvObs.Load(); k != nil {
		k.errors.Inc()
	}
}

// compress runs one request's payload through the shared engine —
// resilient when configured, the deterministic fast path otherwise.
func (s *Server) compress(ctx context.Context, data []byte) ([]byte, error) {
	if s.cfg.Resilient {
		out, _, err := deflateResilient(ctx, data, s.cfg)
		return out, err
	}
	var buf writerBuf
	if _, err := deflateTo(ctx, &buf, data, s.cfg); err != nil {
		return nil, err
	}
	return buf.b, nil
}

func (s *Server) decompress(z []byte) ([]byte, error) {
	out, err := deflateDecode(z, s.cfg.Decode)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return out, nil
}

// writerBuf is the minimal io.Writer collecting a TCP response body.
type writerBuf struct{ b []byte }

func (w *writerBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}
