package client

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"lzssfpga/internal/server"
)

// Mux is a multiplexing framed-TCP connection: many concurrent
// requests pipelined on one socket, each stamped with a distinct wire
// request ID, with responses demultiplexed back to their callers by
// that ID (responses arrive in completion order, not request order).
// It is safe for concurrent use; one Mux per backend is the intended
// shape.
//
// Failure discipline: any transport-level error — a failed send, a
// failed or corrupt receive, a response whose ID matches no in-flight
// request — poisons the connection. Every in-flight request completes
// immediately with an error wrapping ErrConnPoisoned (a retryable
// class: resend on a fresh or alternate connection), and every later
// call fails fast the same way. A poisoned Mux never half-recovers;
// dial a new one.
type Mux struct {
	addr    string
	maxResp int
	c       net.Conn

	wmu sync.Mutex // serializes request writes on the socket

	mu      sync.Mutex
	nextID  uint32
	pending map[uint32]*muxCall
	poison  error // non-nil once poisoned; wraps ErrConnPoisoned
	// abandoned remembers request IDs whose callers gave up (context
	// expired) so a late response is recognized and discarded instead of
	// poisoning the connection as unknown. The set is bounded (FIFO
	// eviction via abandonedQ) so a server that silently drops requests
	// cannot grow it without limit; a response arriving after its ID was
	// evicted poisons the connection like any other unknown ID.
	abandoned  map[uint32]struct{}
	abandonedQ []uint32

	readerDone chan struct{}
}

// maxAbandoned caps how many abandoned request IDs a Mux remembers.
const maxAbandoned = 1024

// muxCall is one in-flight request: a buffered slot the reader (or the
// poisoner) delivers into exactly once.
type muxCall struct {
	ch chan muxResult
}

type muxResult struct {
	msg *server.Message
	err error
}

// DialMuxTimeout connects a multiplexing client to lzssd's framed TCP
// front. maxResp caps how large a response payload the client will
// accept (0 selects 1 GiB); timeout bounds the dial (0 means no
// timeout).
func DialMuxTimeout(addr string, maxResp int, timeout time.Duration) (*Mux, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if maxResp <= 0 {
		maxResp = 1 << 30
	}
	m := &Mux{
		addr:       addr,
		maxResp:    maxResp,
		c:          c,
		pending:    make(map[uint32]*muxCall),
		abandoned:  make(map[uint32]struct{}),
		readerDone: make(chan struct{}),
	}
	go m.reader()
	return m, nil
}

// Addr returns the dialed address.
func (m *Mux) Addr() string { return m.addr }

// Close poisons the connection (failing any in-flight requests with
// ErrConnPoisoned) and closes the socket.
func (m *Mux) Close() error {
	m.poisonAll(net.ErrClosed)
	<-m.readerDone
	return nil
}

// Poisoned reports whether the connection has been poisoned (including
// by Close). A poisoned Mux fails every call fast; replace it.
func (m *Mux) Poisoned() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.poison != nil
}

// Compress round-trips data through the wire protocol and returns the
// zlib stream. Safe to call concurrently with any other request on
// this Mux; ctx bounds this request alone.
func (m *Mux) Compress(ctx context.Context, data []byte) ([]byte, error) {
	out, _, err := m.DoDict(ctx, server.OpCompress, data, "")
	return out, err
}

// CompressDict is Compress negotiating the named preset dictionary.
func (m *Mux) CompressDict(ctx context.Context, data []byte, dictID string) ([]byte, error) {
	out, _, err := m.DoDict(ctx, server.OpCompress, data, dictID)
	return out, err
}

// Decompress round-trips a zlib stream and returns the raw bytes.
func (m *Mux) Decompress(ctx context.Context, z []byte) ([]byte, error) {
	out, _, err := m.DoDict(ctx, server.OpDecompress, z, "")
	return out, err
}

// DecompressDict is Decompress for a stream compressed against the
// named preset dictionary.
func (m *Mux) DecompressDict(ctx context.Context, z []byte, dictID string) ([]byte, error) {
	out, _, err := m.DoDict(ctx, server.OpDecompress, z, dictID)
	return out, err
}

// DoDict sends one request, carrying dictID in the wire dict field (""
// sends a plain request), and waits for its matching response. It
// returns the response payload and the server-assigned trace ID (also
// set for in-band protocol errors, so a failed request can still be
// chased through /debug/requests). When ctx expires first, the request
// is abandoned — its late response will be discarded — and ctx's error
// is returned; the connection stays usable.
func (m *Mux) DoDict(ctx context.Context, op byte, payload []byte, dictID string) ([]byte, string, error) {
	m.mu.Lock()
	if m.poison != nil {
		err := m.poison
		m.mu.Unlock()
		return nil, "", err
	}
	id := m.nextID
	m.nextID++
	call := &muxCall{ch: make(chan muxResult, 1)}
	m.pending[id] = call
	m.mu.Unlock()

	msg := &server.Message{Op: op, Payload: payload, ReqID: id, HasReqID: true, DictID: dictID}
	m.wmu.Lock()
	if d, ok := ctx.Deadline(); ok {
		m.c.SetWriteDeadline(d) //nolint:errcheck
	} else {
		m.c.SetWriteDeadline(time.Time{}) //nolint:errcheck
	}
	werr := server.WriteMessage(m.c, msg)
	m.wmu.Unlock()
	if werr != nil {
		// The socket is mid-message in an unknown position: poison.
		// poisonAll delivers into every pending call, ours included.
		m.poisonAll(fmt.Errorf("sending request: %w", werr))
		res := <-call.ch
		return nil, "", res.err
	}

	select {
	case res := <-call.ch:
		if res.err != nil {
			return nil, "", res.err
		}
		resp := res.msg
		if resp.Status != server.StatusOK {
			return nil, resp.TraceID, server.StatusErr(resp.Status, resp.Payload)
		}
		return resp.Payload, resp.TraceID, nil
	case <-ctx.Done():
		m.mu.Lock()
		if _, ok := m.pending[id]; ok {
			// Still unanswered: move the entry from pending (so it does
			// not leak for the connection's lifetime if the server never
			// answers) to the bounded abandoned set.
			delete(m.pending, id)
			m.noteAbandoned(id)
		}
		m.mu.Unlock()
		return nil, "", ctx.Err()
	}
}

// noteAbandoned records an abandoned request ID, evicting the oldest
// one once the set is full. Caller holds m.mu.
func (m *Mux) noteAbandoned(id uint32) {
	if len(m.abandonedQ) >= maxAbandoned {
		delete(m.abandoned, m.abandonedQ[0])
		m.abandonedQ = m.abandonedQ[1:]
	}
	m.abandoned[id] = struct{}{}
	m.abandonedQ = append(m.abandonedQ, id)
}

// reader is the demultiplexer: one goroutine owns the receive side,
// matching every response to its pending call by request ID.
func (m *Mux) reader() {
	defer close(m.readerDone)
	br := bufio.NewReader(m.c)
	for {
		resp, err := server.ReadMessage(br, m.maxResp)
		if err != nil {
			m.poisonAll(fmt.Errorf("reading response: %w", err))
			return
		}
		if resp.Op != server.OpResponse {
			m.poisonAll(fmt.Errorf("%w: unexpected op %d in response", server.ErrCorrupt, resp.Op))
			return
		}
		if !resp.HasReqID {
			m.poisonAll(fmt.Errorf("%w: response without request ID on a multiplexed connection", server.ErrCorrupt))
			return
		}
		m.mu.Lock()
		call, ok := m.pending[resp.ReqID]
		if ok {
			delete(m.pending, resp.ReqID)
		}
		_, wasAbandoned := m.abandoned[resp.ReqID]
		if wasAbandoned {
			delete(m.abandoned, resp.ReqID)
		}
		m.mu.Unlock()
		if wasAbandoned {
			continue // its caller gave up on ctx; drop the late response
		}
		if !ok {
			// A response for a request this connection never made:
			// either the server misrouted or the stream slipped. Both
			// mean the demultiplexing contract is broken.
			m.poisonAll(fmt.Errorf("%w: response for unknown request ID %d", server.ErrCorrupt, resp.ReqID))
			return
		}
		call.ch <- muxResult{msg: resp}
	}
}

// poisonAll marks the connection poisoned with cause (first caller
// wins), closes the socket, and completes every pending call with the
// poison error.
func (m *Mux) poisonAll(cause error) {
	m.mu.Lock()
	if m.poison == nil {
		m.poison = fmt.Errorf("%w: %w", ErrConnPoisoned, cause)
	}
	err := m.poison
	calls := make([]*muxCall, 0, len(m.pending))
	for id, c := range m.pending {
		delete(m.pending, id)
		calls = append(calls, c)
	}
	clear(m.abandoned)
	m.abandonedQ = nil
	m.mu.Unlock()
	m.c.Close()
	for _, c := range calls {
		c.ch <- muxResult{err: err}
	}
}
