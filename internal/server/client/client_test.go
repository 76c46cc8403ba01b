package client

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"lzssfpga/internal/server"
)

// startServer boots a real lzssd with both fronts on loopback and tears
// it down with the test.
func startServer(t *testing.T, cfg server.Config) (srv *server.Server, tcpAddr, httpAddr string) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tcpAddr, err = srv.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpAddr, err = srv.ListenHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	})
	return srv, tcpAddr, httpAddr
}

// fakeBackend accepts one framed-TCP connection and hands it to serve.
// It exists to script hostile or reordered wire behavior no honest
// server produces.
func fakeBackend(t *testing.T, serve func(c net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		serve(c)
	}()
	return ln.Addr().String()
}

// TestMuxPipelined runs many concurrent requests over ONE multiplexed
// connection against the real server and checks each caller gets its
// own byte-exact result back, however the completions interleave.
func TestMuxPipelined(t *testing.T) {
	_, addr, _ := startServer(t, server.Config{MaxInflight: 64, MaxPipelined: 64})
	m, err := DialMuxTimeout(addr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const n = 16 // ≥8 concurrent in-flight requests on one conn
	rng := rand.New(rand.NewSource(42))
	inputs := make([][]byte, n)
	for i := range inputs {
		inputs[i] = make([]byte, 2048+rng.Intn(8192))
		rng.Read(inputs[i])
		// Stamp a distinct prefix so a cross-matched response cannot
		// accidentally compare equal.
		copy(inputs[i], fmt.Sprintf("request-%02d:", i))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	traceIDs := make([]string, 2*n) // compress IDs, then decompress IDs
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			z, id, err := m.DoDict(ctx, server.OpCompress, inputs[i], "")
			if err != nil {
				t.Errorf("compress %d: %v", i, err)
				return
			}
			traceIDs[i] = id
			out, id, err := m.DoDict(ctx, server.OpDecompress, z, "")
			if err != nil {
				t.Errorf("decompress %d: %v", i, err)
				return
			}
			traceIDs[n+i] = id
			if !bytes.Equal(out, inputs[i]) {
				t.Errorf("request %d: response cross-matched or corrupted", i)
			}
		}(i)
	}
	wg.Wait()
	// Per-request trace IDs must be distinct and stable per caller even
	// though responses interleaved on the shared socket.
	seen := make(map[string]int, 2*n)
	for i, id := range traceIDs {
		if id == "" {
			t.Fatalf("request %d: no trace ID", i)
		}
		if prev, dup := seen[id]; dup {
			t.Fatalf("trace ID %q shared by requests %d and %d", id, prev, i)
		}
		seen[id] = i
	}
	if m.Poisoned() {
		t.Fatal("connection poisoned by a clean pipelined run")
	}
}

// TestMuxReorderedResponses scripts a backend that buffers every
// request and answers them in reverse order: the demultiplexer must
// route each response to its caller by ID alone.
func TestMuxReorderedResponses(t *testing.T) {
	const n = 8
	addr := fakeBackend(t, func(c net.Conn) {
		br := bufio.NewReader(c)
		msgs := make([]*server.Message, 0, n)
		for len(msgs) < n {
			m, err := server.ReadMessage(br, 1<<20)
			if err != nil {
				t.Errorf("fake backend read: %v", err)
				return
			}
			msgs = append(msgs, m)
		}
		for i := len(msgs) - 1; i >= 0; i-- {
			resp := &server.Message{Op: server.OpResponse, Status: server.StatusOK,
				Payload: msgs[i].Payload, ReqID: msgs[i].ReqID, HasReqID: true}
			if err := server.WriteMessage(c, resp); err != nil {
				t.Errorf("fake backend write: %v", err)
				return
			}
		}
	})
	m, err := DialMuxTimeout(addr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := []byte(fmt.Sprintf("echo-%d", i))
			out, _, err := m.DoDict(ctx, server.OpCompress, want, "")
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			if !bytes.Equal(out, want) {
				t.Errorf("request %d: got %q, want %q — demux cross-matched", i, out, want)
			}
		}(i)
	}
	wg.Wait()
}

// TestMuxUnknownResponseID is the hostile-input row for the demux: a
// response whose ID matches no in-flight request breaks the contract
// and must poison the connection with an ErrCorrupt-classed error.
func TestMuxUnknownResponseID(t *testing.T) {
	addr := fakeBackend(t, func(c net.Conn) {
		br := bufio.NewReader(c)
		if _, err := server.ReadMessage(br, 1<<20); err != nil {
			return
		}
		resp := &server.Message{Op: server.OpResponse, Status: server.StatusOK,
			Payload: []byte("who asked"), ReqID: 0x7777, HasReqID: true}
		server.WriteMessage(c, resp) //nolint:errcheck
	})
	m, err := DialMuxTimeout(addr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, _, err = m.DoDict(ctx, server.OpCompress, []byte("hello"), "")
	if !errors.Is(err, ErrConnPoisoned) {
		t.Fatalf("want ErrConnPoisoned, got %v", err)
	}
	if !errors.Is(err, server.ErrCorrupt) {
		t.Fatalf("unknown-ID poison should be ErrCorrupt-classed, got %v", err)
	}
	if _, _, err := m.DoDict(ctx, server.OpCompress, []byte("again"), ""); !errors.Is(err, ErrConnPoisoned) {
		t.Fatalf("later call on poisoned mux: want ErrConnPoisoned, got %v", err)
	}
}

// TestMuxResponseWithoutID: a multiplexed connection must never accept
// an un-keyed response — there is no way to match it.
func TestMuxResponseWithoutID(t *testing.T) {
	addr := fakeBackend(t, func(c net.Conn) {
		br := bufio.NewReader(c)
		if _, err := server.ReadMessage(br, 1<<20); err != nil {
			return
		}
		server.WriteMessage(c, &server.Message{Op: server.OpResponse, Payload: []byte("anonymous")}) //nolint:errcheck
	})
	m, err := DialMuxTimeout(addr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, _, err = m.DoDict(ctx, server.OpCompress, []byte("hello"), "")
	if !errors.Is(err, ErrConnPoisoned) || !errors.Is(err, server.ErrCorrupt) {
		t.Fatalf("want poisoned+corrupt, got %v", err)
	}
}

// TestMuxContextExpiryLeavesConnUsable abandons one request via context
// timeout while the backend stalls it, then confirms the connection
// still serves the next request and discards the late response.
func TestMuxContextExpiryLeavesConnUsable(t *testing.T) {
	gate := make(chan struct{})
	hold := make(chan struct{})
	defer close(hold)
	addr := fakeBackend(t, func(c net.Conn) {
		br := bufio.NewReader(c)
		first, err := server.ReadMessage(br, 1<<20)
		if err != nil {
			return
		}
		second, err := server.ReadMessage(br, 1<<20)
		if err != nil {
			return
		}
		<-gate // hold both until the first caller has given up
		for _, m := range []*server.Message{first, second} {
			resp := &server.Message{Op: server.OpResponse, Payload: m.Payload, ReqID: m.ReqID, HasReqID: true}
			if err := server.WriteMessage(c, resp); err != nil {
				return
			}
		}
		<-hold // keep the conn open so the close doesn't race the asserts
	})
	m, err := DialMuxTimeout(addr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	bg := context.Background()
	short, cancel := context.WithTimeout(bg, 100*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, _, err := m.DoDict(short, server.OpCompress, []byte("abandoned"), "")
		done <- err
	}()
	// Second request rides the same conn; its caller waits patiently.
	long, cancel2 := context.WithTimeout(bg, 10*time.Second)
	defer cancel2()
	res := make(chan error, 1)
	go func() {
		out, _, err := m.DoDict(long, server.OpCompress, []byte("patient"), "")
		if err == nil && !bytes.Equal(out, []byte("patient")) {
			err = errors.New("wrong payload")
		}
		res <- err
	}()
	if err := <-done; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("abandoned request: want DeadlineExceeded, got %v", err)
	}
	close(gate) // backend now answers both, including the abandoned one
	if err := <-res; err != nil {
		t.Fatalf("patient request after a sibling timed out: %v", err)
	}
	if m.Poisoned() {
		t.Fatal("late response for an abandoned request poisoned the conn")
	}
}

// TestMuxAbandonedRequestReaped: a request abandoned via ctx expiry
// must leave the pending map immediately — against a server that never
// answers it, the old entry would leak for the connection's lifetime.
// Its late response (if one ever comes) is still discarded without
// poisoning the connection.
func TestMuxAbandonedRequestReaped(t *testing.T) {
	gate := make(chan struct{})
	hold := make(chan struct{})
	defer close(hold)
	addr := fakeBackend(t, func(c net.Conn) {
		br := bufio.NewReader(c)
		first, err := server.ReadMessage(br, 1<<20)
		if err != nil {
			return
		}
		<-gate // stay silent until the caller has abandoned the request
		late := &server.Message{Op: server.OpResponse, Payload: first.Payload, ReqID: first.ReqID, HasReqID: true}
		if err := server.WriteMessage(c, late); err != nil {
			return
		}
		second, err := server.ReadMessage(br, 1<<20)
		if err != nil {
			return
		}
		resp := &server.Message{Op: server.OpResponse, Payload: second.Payload, ReqID: second.ReqID, HasReqID: true}
		if err := server.WriteMessage(c, resp); err != nil {
			return
		}
		<-hold
	})
	m, err := DialMuxTimeout(addr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	short, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, _, err := m.DoDict(short, server.OpCompress, []byte("abandoned"), ""); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("abandoned request: want DeadlineExceeded, got %v", err)
	}
	m.mu.Lock()
	nPending, nAbandoned := len(m.pending), len(m.abandoned)
	m.mu.Unlock()
	if nPending != 0 {
		t.Fatalf("abandoned call leaked in pending (%d entries)", nPending)
	}
	if nAbandoned != 1 {
		t.Fatalf("abandoned set has %d entries, want 1", nAbandoned)
	}

	close(gate) // the late response arrives now; it must be discarded
	long, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel2()
	out, _, err := m.DoDict(long, server.OpCompress, []byte("after"), "")
	if err != nil || !bytes.Equal(out, []byte("after")) {
		t.Fatalf("conn unusable after reaping an abandoned call: %v", err)
	}
	if m.Poisoned() {
		t.Fatal("late response for an abandoned request poisoned the conn")
	}
	m.mu.Lock()
	nAbandoned = len(m.abandoned)
	m.mu.Unlock()
	if nAbandoned != 0 {
		t.Fatalf("late response did not consume the abandoned entry (%d left)", nAbandoned)
	}
}

// TestMuxPoisonFailsAllInflight kills the socket under a crowd of
// in-flight requests: every one must complete promptly with
// ErrConnPoisoned (the retryable teardown the cluster tier leans on).
func TestMuxPoisonFailsAllInflight(t *testing.T) {
	const n = 8
	addr := fakeBackend(t, func(c net.Conn) {
		br := bufio.NewReader(c)
		for i := 0; i < n; i++ {
			if _, err := server.ReadMessage(br, 1<<20); err != nil {
				return
			}
		}
		c.Close() // all in flight, none answered
	})
	m, err := DialMuxTimeout(addr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = m.DoDict(ctx, server.OpCompress, []byte(fmt.Sprintf("inflight-%d", i)), "")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrConnPoisoned) {
			t.Fatalf("in-flight request %d: want ErrConnPoisoned, got %v", i, err)
		}
	}
	// The connection stays poisoned: a later call fails fast.
	if _, _, err := m.DoDict(ctx, server.OpCompress, []byte("after"), ""); !errors.Is(err, ErrConnPoisoned) {
		t.Fatalf("call after the teardown: want ErrConnPoisoned, got %v", err)
	}
}

func TestHTTPRetryAfter(t *testing.T) {
	var mu sync.Mutex
	rejects := 2
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		reject := rejects > 0
		if reject {
			rejects--
		}
		mu.Unlock()
		if reject {
			w.Header().Set("Retry-After", "0")
			http.Error(w, "server: at capacity", http.StatusTooManyRequests)
			return
		}
		w.Write([]byte("accepted")) //nolint:errcheck
	}))
	defer ts.Close()

	// Without SetRetry the first 429 surfaces immediately as ErrBusy.
	h := NewHTTP(ts.URL)
	if _, err := h.Compress(context.Background(), []byte("x")); !errors.Is(err, server.ErrBusy) {
		t.Fatalf("no-retry client: want ErrBusy, got %v", err)
	}
	mu.Lock()
	rejects = 2
	mu.Unlock()
	// With a 3-attempt budget the two 429s are absorbed.
	out, err := NewHTTP(ts.URL).SetRetry(3).Compress(context.Background(), []byte("x"))
	if err != nil {
		t.Fatalf("retrying client: %v", err)
	}
	if string(out) != "accepted" {
		t.Fatalf("got %q", out)
	}
	// A budget smaller than the reject streak still fails with the
	// typed error.
	mu.Lock()
	rejects = 5
	mu.Unlock()
	if _, err := NewHTTP(ts.URL).SetRetry(3).Compress(context.Background(), []byte("x")); !errors.Is(err, server.ErrBusy) {
		t.Fatalf("exhausted budget: want ErrBusy, got %v", err)
	}
}

func TestHTTPRetryAfterHonorsContext(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		http.Error(w, "server: at capacity", http.StatusTooManyRequests)
	}))
	defer ts.Close()
	h := NewHTTP(ts.URL).SetRetry(5)
	h.maxWait = time.Hour // don't let the cap rescue the test
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := h.Compress(ctx, []byte("x"))
	if err == nil {
		t.Fatal("want error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ctx deadline, got %v", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("Retry-After sleep ignored the context (took %v)", took)
	}
}

func TestHTTPHealthJSON(t *testing.T) {
	srv, _, httpAddr := startServer(t, server.Config{})
	h := NewHTTP(httpAddr)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := h.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "serving" {
		t.Fatalf("state = %q, want serving", st.State)
	}
	if st.MaxInflight != srv.Config().MaxInflight {
		t.Fatalf("max_inflight = %d, want %d", st.MaxInflight, srv.Config().MaxInflight)
	}
	if st.Inflight != 0 {
		t.Fatalf("inflight = %d, want 0", st.Inflight)
	}
	// The plain form must stay the original two-state contract.
	resp, err := http.Get("http://" + httpAddr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 16)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body[:n]) != "ok\n" {
		t.Fatalf("plain healthz changed: %d %q", resp.StatusCode, body[:n])
	}

	// Drain observation: Shutdown closes the server's own listeners, so
	// serve the handler from an independent listener to watch the state
	// flip. Health must succeed on a draining node and report it.
	srv2, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv2.HTTPHandler())
	defer ts.Close()
	go srv2.Shutdown(context.Background()) //nolint:errcheck
	h2 := NewHTTP(ts.URL)
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err = h2.Health(ctx)
		if err == nil && st.State == "draining" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never observed draining: state=%q err=%v", st.State, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
