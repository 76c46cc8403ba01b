package cluster

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"lzssfpga/internal/cache/dict"
	"lzssfpga/internal/deflate"
	"lzssfpga/internal/server"
	"lzssfpga/internal/server/client"
	"lzssfpga/internal/workload"
)

// newDictBackend is newTestBackend with the built-in dictionary
// registry installed — the fleet shape for preset-dictionary serving
// (every member resolves the same byte-identical built-ins).
func newDictBackend(t *testing.T) *testBackend {
	t.Helper()
	reg, err := dict.NewBuiltinRegistry()
	if err != nil {
		t.Fatal(err)
	}
	b := &testBackend{t: t}
	srv, err := server.New(server.Config{Segment: 16 << 10, MaxInflight: 64, Dicts: reg})
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

// TestFrontDictRoundTripAndCache drives preset-dictionary requests
// through the full serving stack — client → routing front → cluster →
// backend — and verifies byte-exact round trips, the dict-ID echo, the
// unknown-dict status mapping, and that the front's content-addressed
// cache answers repeats without touching the fleet.
func TestFrontDictRoundTripAndCache(t *testing.T) {
	backs := []*testBackend{newDictBackend(t), newDictBackend(t), newDictBackend(t)}
	specs := make([]BackendSpec, len(backs))
	for i, b := range backs {
		specs[i] = BackendSpec{TCP: b.tcp}
	}
	c := newTestCluster(t, specs, nil)
	f := NewFront(c, FrontConfig{CacheBytes: 16 << 20})
	addr, err := f.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() }) //nolint:errcheck

	p := workload.JSONish(48<<10, 77)
	dictBytes, err := dict.Builtin("json")
	if err != nil {
		t.Fatal(err)
	}
	lim := backs[0].current().Config().Decode

	// The first compress is a plain request, so the echo is read off the
	// response header.
	resp := plainDo(t, addr, &server.Message{Op: server.OpCompress, Payload: p, DictID: "json"})
	if resp.Status != server.StatusOK {
		t.Fatalf("compress through front: %v", server.StatusErr(resp.Status, resp.Payload))
	}
	if resp.DictID != "json" {
		t.Fatalf("front echoed dict %q, want json", resp.DictID)
	}
	z := resp.Payload
	got, err := deflate.ZlibDecompressDictLimited(z, dictBytes, lim)
	if err != nil || !bytes.Equal(got, p) {
		t.Fatalf("local dict decode: %v (match=%v)", err, bytes.Equal(got, p))
	}
	tc, err := client.DialMuxTimeout(addr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	back, err := tc.DecompressDict(ctx, z, "json")
	if err != nil || !bytes.Equal(back, p) {
		t.Fatalf("decompress through front: %v (match=%v)", err, bytes.Equal(back, p))
	}

	// Repeat the compress: the front cache must answer it itself, with
	// the same bytes.
	z2, err := tc.CompressDict(ctx, p, "json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(z, z2) {
		t.Fatal("front cache served different bytes")
	}
	st := f.CacheStats()
	if st.Hits < 1 || st.Misses < 1 {
		t.Fatalf("front cache hits=%d misses=%d, want >=1 each", st.Hits, st.Misses)
	}

	// A dictionary no backend holds: StatusUnknownDict surfaces as
	// ErrUnknownDict through the front, and the connection survives.
	if _, err := tc.CompressDict(ctx, p, "nope"); !errors.Is(err, server.ErrUnknownDict) {
		t.Fatalf("unknown dict through front: %v, want ErrUnknownDict", err)
	}
	if _, err := tc.Compress(ctx, []byte("still alive")); err != nil {
		t.Fatalf("connection unusable after unknown-dict rejection: %v", err)
	}
}

// TestFrontCacheStampede: concurrent identical requests through the
// front coalesce onto one routed compression — the fleet sees a single
// request for the hot block.
func TestFrontCacheStampede(t *testing.T) {
	b := newDictBackend(t)
	c := newTestCluster(t, []BackendSpec{{TCP: b.tcp}}, nil)
	f := NewFront(c, FrontConfig{CacheBytes: 16 << 20})
	addr, err := f.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() }) //nolint:errcheck

	m, err := client.DialMuxTimeout(addr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	p := workload.Wiki(64<<10, 5)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const waiters = 32
	start := make(chan struct{})
	var wg sync.WaitGroup
	results := make([][]byte, waiters)
	traceIDs := make([]string, waiters)
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], traceIDs[i], errs[i] = m.DoDict(ctx, server.OpCompress, p, "")
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < waiters; i++ {
		if errs[i] != nil {
			t.Fatalf("waiter %d: %v", i, errs[i])
		}
		if !bytes.Equal(results[i], results[0]) {
			t.Fatalf("waiter %d got different bytes", i)
		}
	}
	st := f.CacheStats()
	if st.Misses != 1 {
		t.Fatalf("front routed %d compressions for one hot block, want 1", st.Misses)
	}
	if st.Hits+st.Coalesced != waiters-1 {
		t.Fatalf("hits=%d coalesced=%d, want sum %d", st.Hits, st.Coalesced, waiters-1)
	}
	// Only the one routed request carries a backend trace ID; hits and
	// coalesced waiters answer with an empty one.
	traced := 0
	for _, id := range traceIDs {
		if id != "" {
			traced++
		}
	}
	if traced != 1 {
		t.Fatalf("%d responses carry a trace ID, want exactly the routed one", traced)
	}
}
