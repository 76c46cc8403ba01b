package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lzssfpga/internal/deflate"
	"lzssfpga/internal/obs"
	"lzssfpga/internal/resilience"
	"lzssfpga/internal/server"
	"lzssfpga/internal/server/client"
	"lzssfpga/internal/workload"
)

func TestParseBackends(t *testing.T) {
	cases := []struct {
		in   string
		want []BackendSpec
		err  bool
	}{
		{in: "a:1", want: []BackendSpec{{TCP: "a:1"}}},
		{in: "a:1,b:2", want: []BackendSpec{{TCP: "a:1"}, {TCP: "b:2"}}},
		{in: "a:1/a:81, b:2/b:82", want: []BackendSpec{{TCP: "a:1", HTTP: "a:81"}, {TCP: "b:2", HTTP: "b:82"}}},
		{in: "a:1, ,b:2,", want: []BackendSpec{{TCP: "a:1"}, {TCP: "b:2"}}},
		{in: "", err: true},
		{in: " , ", err: true},
		{in: "/h:80", err: true},
	}
	for _, tc := range cases {
		got, err := ParseBackends(tc.in)
		if tc.err {
			if err == nil {
				t.Errorf("ParseBackends(%q): want error, got %v", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseBackends(%q): %v", tc.in, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("ParseBackends(%q) = %v, want %v", tc.in, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("ParseBackends(%q)[%d] = %v, want %v", tc.in, i, got[i], tc.want[i])
			}
		}
	}
}

// testBackend is one restartable lzssd backend: kill it outright with
// stop, or drain it gracefully with shutdown, then start it again on
// the SAME addresses (the ring layout is keyed by address).
type testBackend struct {
	t    *testing.T
	mu   sync.Mutex
	srv  *server.Server
	tcp  string
	http string
}

func newTestBackend(t *testing.T) *testBackend {
	t.Helper()
	b := &testBackend{t: t}
	srv, err := server.New(server.Config{Segment: 16 << 10, MaxInflight: 64})
	if err != nil {
		t.Fatal(err)
	}
	if b.tcp, err = srv.ListenTCP("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if b.http, err = srv.ListenHTTP("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	b.srv = srv
	t.Cleanup(func() { b.current().Close() })
	return b
}

func (b *testBackend) current() *server.Server {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.srv
}

func (b *testBackend) spec() BackendSpec { return BackendSpec{TCP: b.tcp, HTTP: b.http} }

// restart brings a stopped/drained backend back on its old addresses.
// The old sockets may linger briefly after Close, so binding retries.
func (b *testBackend) restart() {
	b.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		srv, err := server.New(server.Config{Segment: 16 << 10, MaxInflight: 64})
		if err != nil {
			b.t.Fatal(err)
		}
		if _, err = srv.ListenTCP(b.tcp); err == nil {
			if _, err = srv.ListenHTTP(b.http); err == nil {
				b.mu.Lock()
				b.srv = srv
				b.mu.Unlock()
				return
			}
		}
		srv.Close() //nolint:errcheck
		if time.Now().After(deadline) {
			b.t.Fatalf("rebinding %s/%s: %v", b.tcp, b.http, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// plainDo sends msg without a request ID on a fresh connection to addr,
// as a client that does not pipeline does, and returns the response.
func plainDo(t *testing.T, addr string, msg *server.Message) *server.Message {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(60 * time.Second)) //nolint:errcheck
	if err := server.WriteMessage(c, msg); err != nil {
		t.Fatal(err)
	}
	resp, err := server.ReadMessage(c, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func newTestCluster(t *testing.T, specs []BackendSpec, mut func(*Config)) *Cluster {
	t.Helper()
	cfg := Config{
		Backends: specs,
		Retry: resilience.Policy{
			MaxRetries:  8,
			BaseBackoff: 2 * time.Millisecond,
			MaxBackoff:  50 * time.Millisecond,
			JitterFrac:  0.2,
		},
		BreakerThreshold: 1,
		BreakerOpenFor:   50 * time.Millisecond,
		BreakerMaxOpen:   400 * time.Millisecond,
		ProbeInterval:    150 * time.Millisecond,
		DialTimeout:      250 * time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestClusterRoundTrip(t *testing.T) {
	backs := []*testBackend{newTestBackend(t), newTestBackend(t), newTestBackend(t)}
	specs := make([]BackendSpec, len(backs))
	for i, b := range backs {
		specs[i] = BackendSpec{TCP: b.tcp} // passive-only members
	}
	c := newTestCluster(t, specs, nil)
	lim := backs[0].current().Config().Decode
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	payloads := [][]byte{
		nil,
		[]byte("x"),
		workload.Wiki(48<<10, 3),
		workload.Random(4<<10, 9),
		bytes.Repeat([]byte("cluster round trip "), 700),
	}
	for i, data := range payloads {
		z, err := c.Compress(ctx, data)
		if err != nil {
			t.Fatalf("payload %d: compress: %v", i, err)
		}
		back, err := deflate.ZlibDecompressLimited(z, lim)
		if err != nil {
			t.Fatalf("payload %d: local decode: %v", i, err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("payload %d: local round trip not byte-exact", i)
		}
		back, err = c.Decompress(ctx, z)
		if err != nil {
			t.Fatalf("payload %d: cluster decompress: %v", i, err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("payload %d: cluster round trip not byte-exact", i)
		}
	}
	if live := c.Live(); live != len(backs) {
		t.Fatalf("Live() = %d, want %d", live, len(backs))
	}
}

// TestRetryOnAlternate: with one member dead at a never-listening
// address, every request still succeeds — attempts that route to the
// corpse fail fast and retry on the next ring alternate.
func TestRetryOnAlternate(t *testing.T) {
	reg := obs.NewRegistry()
	SetObservability(reg)
	defer SetObservability(nil)

	live := newTestBackend(t)
	// Reserve an address that refuses connections: listen, note, close.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	c := newTestCluster(t, []BackendSpec{{TCP: live.tcp}, {TCP: dead}}, func(cfg *Config) {
		cfg.BreakerThreshold = 2 // keep the corpse in rotation a while
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 64; i++ {
		data := []byte(fmt.Sprintf("retry-on-alternate payload %d", i))
		z, err := c.Compress(ctx, data)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		back, err := c.Decompress(ctx, z)
		if err != nil || !bytes.Equal(back, data) {
			t.Fatalf("request %d: round trip failed: %v", i, err)
		}
	}
	if v := reg.Counter(obs.ClusterRetries).Value(); v == 0 {
		t.Error("no request ever retried onto the alternate — dead member never keyed first?")
	}
	if v := reg.Counter(obs.ClusterBreakerOpens).Value(); v == 0 {
		t.Error("dead member's breaker never opened")
	}
}

// TestNonRetryableFailsFast: an in-band deterministic rejection
// (corrupt zlib input) returns immediately — no alternates, no retry
// spend, and the answering member counts as healthy.
func TestNonRetryableFailsFast(t *testing.T) {
	reg := obs.NewRegistry()
	SetObservability(reg)
	defer SetObservability(nil)

	b := newTestBackend(t)
	c := newTestCluster(t, []BackendSpec{{TCP: b.tcp}}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err := c.Decompress(ctx, []byte("this is not a zlib stream"))
	if !errors.Is(err, server.ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	if v := reg.Counter(obs.ClusterRetries).Value(); v != 0 {
		t.Fatalf("deterministic rejection burned %d retries", v)
	}
	if c.Live() != 1 {
		t.Fatal("an answering member was demoted for its caller's corrupt input")
	}
}

// TestFrontOversizeThroughSmallerBackend: a backend whose request cap
// is below the front's rejects the routed request in-band under its
// request ID, so the caller sees the deterministic ErrTooLarge after
// one attempt — not a poisoned backend connection retried across the
// fleet until it surfaces as a retryable busy.
func TestFrontOversizeThroughSmallerBackend(t *testing.T) {
	reg := obs.NewRegistry()
	SetObservability(reg)
	defer SetObservability(nil)

	srv, err := server.New(server.Config{Segment: 16 << 10, MaxInflight: 64, MaxRequestBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tcp, err := srv.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := newTestCluster(t, []BackendSpec{{TCP: tcp}}, nil)
	f := NewFront(c, FrontConfig{})
	addr, err := f.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	mx, err := client.DialMuxTimeout(addr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := mx.Compress(ctx, bytes.Repeat([]byte{7}, 4<<10)); !errors.Is(err, server.ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
	if v := reg.Counter(obs.ClusterRetries).Value(); v != 0 {
		t.Fatalf("deterministic rejection burned %d retries", v)
	}
}

// TestFrontOversizeAnswersTooLarge: the front's own request cap
// answers StatusTooLarge, as lzssd does — not StatusCorrupt — to a
// serial client and, under the request ID, to a multiplexed one.
func TestFrontOversizeAnswersTooLarge(t *testing.T) {
	b := newTestBackend(t)
	c := newTestCluster(t, []BackendSpec{{TCP: b.tcp}}, nil)
	f := NewFront(c, FrontConfig{MaxRequestBytes: 1 << 10})
	addr, err := f.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	payload := bytes.Repeat([]byte{7}, 4<<10)

	resp := plainDo(t, addr, &server.Message{Op: server.OpCompress, Payload: payload})
	if err := server.StatusErr(resp.Status, resp.Payload); !errors.Is(err, server.ErrTooLarge) {
		t.Fatalf("serial client: want ErrTooLarge, got %v", err)
	}

	mx, err := client.DialMuxTimeout(addr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := mx.Compress(ctx, payload); !errors.Is(err, server.ErrTooLarge) {
		t.Fatalf("multiplexed client: want ErrTooLarge, got %v", err)
	}
}

// TestExhaustionClassifiedRetryable: with every member unreachable the
// attempt budget drains and the error wraps ErrBudgetExhausted (the
// front maps it to the retryable busy status).
func TestExhaustionClassifiedRetryable(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	c := newTestCluster(t, []BackendSpec{{TCP: dead}}, func(cfg *Config) {
		cfg.Retry.MaxRetries = 2
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = c.Compress(ctx, []byte("doomed"))
	if !errors.Is(err, resilience.ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
	if statusOf(err) != server.StatusBusy {
		t.Fatalf("exhaustion must surface as the retryable busy status, got %d", statusOf(err))
	}
}

// TestFrontStatusMapping pins the routing tier's error-to-status
// mapping: every serving sentinel maps as lzssd maps it, transport
// exhaustion (a poisoned backend connection, a spent attempt budget)
// reads as the retryable busy status, and a cap rejection keeps its
// class even inside a poisoned connection — Mux poisons with the
// ReadMessage error of an over-MaxResp response.
func TestFrontStatusMapping(t *testing.T) {
	wire, err := server.AppendMessage(nil, &server.Message{Op: server.OpResponse, Payload: make([]byte, 64)})
	if err != nil {
		t.Fatal(err)
	}
	_, capErr := server.ReadMessage(bytes.NewReader(wire), 16)
	_, corruptErr := server.ReadMessage(bytes.NewReader(wire[:20]), 1<<20)
	if !errors.Is(capErr, server.ErrTooLarge) || !errors.Is(corruptErr, server.ErrCorrupt) || errors.Is(corruptErr, server.ErrTooLarge) {
		t.Fatalf("unexpected parser errors: cap %v, truncated %v", capErr, corruptErr)
	}
	// poisoned wraps cause the way Mux.poisonAll does.
	poisoned := func(cause error) error {
		return fmt.Errorf("%w: %w", client.ErrConnPoisoned, fmt.Errorf("reading response: %w", cause))
	}
	exhausted := func(last error) error {
		return fmt.Errorf("cluster: 4 attempts exhausted: %w: %w", resilience.ErrBudgetExhausted, last)
	}
	type statusCase struct {
		name string
		err  error
		want byte
	}
	cases := []statusCase{
		{"too large", server.ErrTooLarge, server.StatusTooLarge},
		{"cap rejection (wraps corrupt too)", capErr, server.StatusTooLarge},
		{"corrupt", corruptErr, server.StatusCorrupt},
		{"busy", server.ErrBusy, server.StatusBusy},
		{"draining", server.ErrDraining, server.StatusDraining},
		{"unknown dict", server.ErrUnknownDict, server.StatusUnknownDict},
		{"unclassified", errors.New("backend exploded"), server.StatusInternal},
		{"caller deadline", fmt.Errorf("cluster: %w (last backend error: %w)", context.DeadlineExceeded, io.EOF), server.StatusInternal},
		{"poisoned conn", poisoned(io.ErrUnexpectedEOF), server.StatusBusy},
		{"poisoned by a corrupt response", poisoned(corruptErr), server.StatusBusy},
		{"poisoned by an oversize response", poisoned(capErr), server.StatusTooLarge},
		{"budget exhausted", exhausted(server.ErrBusy), server.StatusBusy},
		{"budget exhausted after draining", exhausted(server.ErrDraining), server.StatusBusy},
		{"budget exhausted after a poisoned conn", exhausted(poisoned(corruptErr)), server.StatusBusy},
	}
	for _, st := range []byte{server.StatusCorrupt, server.StatusTooLarge, server.StatusBusy,
		server.StatusDraining, server.StatusUnknownDict, server.StatusInternal} {
		// A backend's in-band answer, as Mux returns it, goes back out
		// of the front with the same status.
		cases = append(cases, statusCase{fmt.Sprintf("backend status %d", st), server.StatusErr(st, []byte("detail")), st})
	}
	cases = append(cases, statusCase{"backend conn limit", server.StatusErr(server.StatusConnLimit, []byte("detail")), server.StatusTooLarge})
	for _, tc := range cases {
		if got := statusOf(tc.err); got != tc.want {
			t.Errorf("%s: statusOf(%v) = %d, want %d", tc.name, tc.err, got, tc.want)
		}
	}
}

// TestDrainOnePassiveReadmit: a member without a probe address is
// readmitted the moment its drain function returns.
func TestDrainOnePassiveReadmit(t *testing.T) {
	backs := []*testBackend{newTestBackend(t), newTestBackend(t)}
	specs := []BackendSpec{{TCP: backs[0].tcp}, {TCP: backs[1].tcp}}
	c := newTestCluster(t, specs, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if _, err := c.Compress(ctx, []byte("warm up both conns and the ring")); err != nil {
		t.Fatal(err)
	}
	drained := false
	err := c.DrainOne(ctx, 1, func(ctx context.Context, i int, spec BackendSpec) error {
		if err := backs[1].current().Shutdown(ctx); err != nil {
			return err
		}
		backs[1].restart()
		drained = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !drained {
		t.Fatal("drain function never ran")
	}
	if c.members[1].ejected.Load() {
		t.Fatal("probe-less member not readmitted after drainFn returned")
	}
	// The readmitted member serves again through a fresh connection.
	for i := 0; i < 16; i++ {
		data := []byte(fmt.Sprintf("post-drain request %d", i))
		z, err := c.Compress(ctx, data)
		if err != nil {
			t.Fatalf("post-drain request %d: %v", i, err)
		}
		back, err := deflate.ZlibDecompressLimited(z, backs[0].current().Config().Decode)
		if err != nil || !bytes.Equal(back, data) {
			t.Fatalf("post-drain request %d: round trip failed: %v", i, err)
		}
	}
}

// TestHalfOpenProbeCtxExpiryNoWedge: a caller deadline expiring during
// the half-open probe must release the probe slot. Before the fix the
// probe never resolved (try's ctx branch skipped the breaker verdict),
// probing stayed set forever, and the member was unroutable until
// process restart.
func TestHalfOpenProbeCtxExpiryNoWedge(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var hang atomic.Bool
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if !hang.Load() {
				conn.Close() // slam: a transport failure trips the breaker
				continue
			}
			go func(c net.Conn) { // hold the conn open, answer nothing
				defer c.Close()
				<-stop
			}(conn)
		}
	}()

	c := newTestCluster(t, []BackendSpec{{TCP: ln.Addr().String()}}, func(cfg *Config) {
		cfg.Retry.MaxRetries = 0
		cfg.BreakerThreshold = 1
		cfg.BreakerOpenFor = 20 * time.Millisecond
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.Compress(ctx, []byte("slammed")); err == nil {
		t.Fatal("request against the slamming backend succeeded")
	}
	if got := c.members[0].br.State(); got != BreakerOpen {
		t.Fatalf("breaker state %s, want open", got)
	}
	hang.Store(true)
	time.Sleep(25 * time.Millisecond) // let the open interval lapse

	short, scancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer scancel()
	if _, err := c.Compress(short, []byte("probe that will time out")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ctx deadline, got %v", err)
	}
	if !c.members[0].br.allow() {
		t.Fatal("breaker wedged: half-open slot never released after the probe's ctx expired")
	}
}

// TestDrainOneNoEarlyReadmission: while drainFn is still running the
// backend may well still answer probes as "serving" — those probes must
// NOT readmit the ejected member, or RollingDrain would move on with
// two members out of rotation at once. Readmission arms only after
// drainFn returns.
func TestDrainOneNoEarlyReadmission(t *testing.T) {
	backs := []*testBackend{newTestBackend(t), newTestBackend(t)}
	specs := []BackendSpec{backs[0].spec(), backs[1].spec()}
	c := newTestCluster(t, specs, func(cfg *Config) {
		cfg.ProbeInterval = 20 * time.Millisecond
		cfg.ProbeTimeout = 500 * time.Millisecond
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	proceed := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- c.DrainOne(ctx, 1, func(ctx context.Context, i int, spec BackendSpec) error {
			<-proceed // hold the drain open while probes land
			if err := backs[i].current().Shutdown(ctx); err != nil {
				return err
			}
			backs[i].restart()
			return nil
		})
	}()
	// Several probe ticks observe the still-serving, not-yet-drained
	// backend; none of them may readmit it.
	time.Sleep(150 * time.Millisecond)
	if !c.members[1].ejected.Load() {
		t.Fatal("probe readmitted the member while its drain was still in progress")
	}
	close(proceed)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for c.members[1].ejected.Load() {
		if time.Now().After(deadline) {
			t.Fatal("drained member never readmitted by the probe loop")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFrontRoutesPipelined: the cluster front speaks the same framed
// protocol as lzssd itself — a multiplexed client pipelines concurrent
// requests through it, each routed across the fleet and answered
// byte-exact under the matching request ID.
func TestFrontRoutesPipelined(t *testing.T) {
	backs := []*testBackend{newTestBackend(t), newTestBackend(t)}
	specs := []BackendSpec{{TCP: backs[0].tcp}, {TCP: backs[1].tcp}}
	c := newTestCluster(t, specs, nil)
	f := NewFront(c, FrontConfig{})
	addr, err := f.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	m, err := client.DialMuxTimeout(addr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	lim := backs[0].current().Config().Decode
	var wg sync.WaitGroup
	errc := make(chan error, 10)
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data := workload.Wiki(24<<10, int64(i))
			z, err := m.Compress(ctx, data)
			if err != nil {
				errc <- fmt.Errorf("pipelined %d: %w", i, err)
				return
			}
			back, err := deflate.ZlibDecompressLimited(z, lim)
			if err != nil || !bytes.Equal(back, data) {
				errc <- fmt.Errorf("pipelined %d: round trip failed: %v", i, err)
				return
			}
			if _, err := m.Decompress(ctx, z); err != nil {
				errc <- fmt.Errorf("pipelined %d: decompress: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Deterministic rejections keep their class across the front.
	if _, err := m.Decompress(ctx, []byte("junk, not zlib")); !errors.Is(err, server.ErrCorrupt) {
		t.Fatalf("corrupt input through the front: want ErrCorrupt, got %v", err)
	}

	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := f.Shutdown(sctx); err != nil {
		t.Fatalf("front shutdown: %v", err)
	}
}

// TestClusterChaos is the chaos gate (ci.sh runs it under -race): a
// 4-backend fleet under sustained pipelined load while one backend is
// killed outright and restarted, and another is rolling-drained — with
// ZERO failed round trips, every byte exact, retries observed, and the
// breaker's open/close transitions visible in the metrics scrape.
func TestClusterChaos(t *testing.T) {
	reg := obs.NewRegistry()
	SetObservability(reg)
	defer SetObservability(nil)

	const nBackends = 4
	backs := make([]*testBackend, nBackends)
	specs := make([]BackendSpec, nBackends)
	for i := range backs {
		backs[i] = newTestBackend(t)
		specs[i] = backs[i].spec()
	}
	c := newTestCluster(t, specs, func(cfg *Config) {
		cfg.ProbeInterval = 150 * time.Millisecond
		// A probe slower than the interval must not read as an outage:
		// under -race a loaded scheduler stalls an HTTP GET for tens of
		// milliseconds routinely.
		cfg.ProbeTimeout = 500 * time.Millisecond
	})
	lim := backs[0].current().Config().Decode

	// Sustained load: 8 workers, nonce-stamped payloads spanning empty,
	// tiny, random (incompressible) and wiki-like (compressible) shapes,
	// every round trip verified byte-exact.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var rounds atomic.Int64
	errc := make(chan error, 16)
	fail := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}
	base := [][]byte{
		{},
		[]byte("tiny"),
		workload.Random(1<<10, 42),
		workload.Wiki(32<<10, 7),
		workload.Wiki(96<<10, 11),
	}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				data := append([]byte(fmt.Sprintf("worker %d round %d | ", w, n)), base[(w+n)%len(base)]...)
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				z, err := c.Compress(ctx, data)
				if err != nil {
					cancel()
					fail(fmt.Errorf("worker %d round %d: compress: %w", w, n, err))
					return
				}
				back, err := deflate.ZlibDecompressLimited(z, lim)
				if err != nil || !bytes.Equal(back, data) {
					cancel()
					fail(fmt.Errorf("worker %d round %d: local decode mismatch: %v", w, n, err))
					return
				}
				if n%4 == 0 {
					back, err = c.Decompress(ctx, z)
					if err != nil || !bytes.Equal(back, data) {
						cancel()
						fail(fmt.Errorf("worker %d round %d: cluster decompress mismatch: %v", w, n, err))
						return
					}
				}
				cancel()
				rounds.Add(1)
			}
		}(w)
	}

	waitCounter := func(name string, min int64, timeout time.Duration, what string) {
		t.Helper()
		deadline := time.Now().Add(timeout)
		for reg.Counter(name).Value() < min {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (%s ≥ %d, have %d)", what, name, min, reg.Counter(name).Value())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Let the fleet warm up under load.
	time.Sleep(150 * time.Millisecond)

	// Chaos 1: kill backend 1 outright — in-flight requests on its conn
	// fail over via the poisoned-conn path, organic traffic trips its
	// breaker, probes mark it down — then bring it back on the same
	// addresses. The health probe races the organic traffic: if it
	// demotes the corpse before any request touches it, the breaker has
	// nothing to observe, so restart and kill again until the load loses
	// the race (it usually wins the first round).
	pollCounter := func(name string, min int64, window time.Duration) bool {
		deadline := time.Now().Add(window)
		for reg.Counter(name).Value() < min {
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(10 * time.Millisecond)
		}
		return true
	}
	killDeadline := time.Now().Add(60 * time.Second)
	for kills := 1; ; kills++ {
		backs[1].current().Close()
		tripped := pollCounter(obs.ClusterBreakerOpens, 1, 1200*time.Millisecond)
		backs[1].restart()
		if tripped {
			t.Logf("breaker opened on kill %d", kills)
			break
		}
		if time.Now().After(killDeadline) {
			t.Fatal("no kill ever tripped the breaker before the probe demoted the member")
		}
		// Wait for probe readmission before the next kill so traffic
		// flows to the member again.
		for c.Live() != nBackends {
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitCounter(obs.ClusterBreakerCloses, 1, 20*time.Second, "restarted backend's breaker to close")

	// Chaos 2: rolling-drain backend 2 — eject, bleed, graceful
	// Shutdown, restart, probe-gated readmission.
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	err := c.DrainOne(dctx, 2, func(ctx context.Context, i int, spec BackendSpec) error {
		if err := backs[i].current().Shutdown(ctx); err != nil {
			return err
		}
		backs[i].restart()
		return nil
	})
	dcancel()
	if err != nil {
		t.Fatalf("rolling drain: %v", err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for c.members[2].ejected.Load() {
		if time.Now().After(deadline) {
			t.Fatal("drained backend never readmitted by the probe loop")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Post-chaos soak: keep the load running until a healthy body of
	// round trips has accumulated, then stop it.
	deadline = time.Now().Add(20 * time.Second)
	for rounds.Load() < 100 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	if n := rounds.Load(); n < 50 {
		t.Fatalf("only %d round trips completed — load never ran", n)
	}

	// The scrape tells the story: retries happened, breakers opened and
	// closed, a drain ran, and the full fleet is live again.
	if v := reg.Counter(obs.ClusterRetries).Value(); v == 0 {
		t.Error("cluster_retries_total = 0; chaos produced no failovers")
	}
	if v := reg.Counter(obs.ClusterBreakerOpens).Value(); v == 0 {
		t.Error("cluster_breaker_opens_total = 0")
	}
	if v := reg.Counter(obs.ClusterBreakerCloses).Value(); v == 0 {
		t.Error("cluster_breaker_closes_total = 0")
	}
	if v := reg.Counter(obs.ClusterDrains).Value(); v != 1 {
		t.Errorf("cluster_drains_total = %d, want 1", v)
	}
	// Full recovery: every member live again (the probe loop and the
	// breakers' half-open cycles both need a beat after the load stops).
	deadline = time.Now().Add(15 * time.Second)
	for c.Live() != nBackends {
		if time.Now().After(deadline) {
			for i, m := range c.members {
				t.Logf("member %d: health=%s ejected=%v awaiting=%v breaker=%s",
					i, m.getHealth(), m.ejected.Load(), m.awaiting.Load(), m.br.State())
			}
			t.Fatalf("after recovery Live() = %d, want %d", c.Live(), nBackends)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Logf("chaos summary: %d round trips, retries=%d opens=%d closes=%d poisoned=%d dialed=%d",
		rounds.Load(),
		reg.Counter(obs.ClusterRetries).Value(),
		reg.Counter(obs.ClusterBreakerOpens).Value(),
		reg.Counter(obs.ClusterBreakerCloses).Value(),
		reg.Counter(obs.ClusterConnsPoisoned).Value(),
		reg.Counter(obs.ClusterConnsDialed).Value())
}
