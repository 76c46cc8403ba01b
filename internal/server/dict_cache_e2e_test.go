package server_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lzssfpga/internal/cache/dict"
	"lzssfpga/internal/deflate"
	"lzssfpga/internal/server"
	"lzssfpga/internal/server/client"
	"lzssfpga/internal/workload"
)

// newDictServer starts a server with the built-in dictionary registry
// and a result cache sized for the test payloads.
func newDictServer(t *testing.T, cacheBytes int64, verify bool) (srv *server.Server, httpAddr, tcpAddr string) {
	t.Helper()
	reg, err := dict.NewBuiltinRegistry()
	if err != nil {
		t.Fatal(err)
	}
	return newTestServer(t, server.Config{
		Segment:     8 << 10,
		MaxInflight: 128,
		CacheBytes:  cacheBytes,
		CacheVerify: verify,
		Dicts:       reg,
	})
}

// TestServerDictRoundTripBothFronts is the dictionary acceptance test:
// for every built-in class, a payload of that class compresses against
// the negotiated dictionary on both fronts, the stream carries the
// dictionary's DICTID (it only inflates with the right dictionary),
// and the server decompresses it back byte-exact.
func TestServerDictRoundTripBothFronts(t *testing.T) {
	check := leakCheck(t)
	srv, httpAddr, tcpAddr := newDictServer(t, 0, false)
	lim := srv.Config().Decode

	payloads := map[string][]byte{
		"wiki": workload.Wiki(48<<10, 99),
		"can":  workload.CAN(48<<10, 99),
		"json": workload.JSONish(48<<10, 99),
	}
	hc := client.NewHTTP(httpAddr)
	tc, err := client.DialTCP(tcpAddr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	tc.SetDeadline(time.Now().Add(60 * time.Second)) //nolint:errcheck
	ctx := context.Background()

	for class, p := range payloads {
		dictBytes, err := dict.Builtin(class)
		if err != nil {
			t.Fatal(err)
		}
		for _, front := range []string{"http", "tcp"} {
			var z []byte
			if front == "http" {
				z, err = hc.CompressDict(ctx, p, class)
			} else {
				z, err = tc.CompressDict(p, class)
			}
			if err != nil {
				t.Fatalf("%s %s: compress: %v", front, class, err)
			}
			// The stream must decode against the dictionary…
			got, err := deflate.ZlibDecompressDictLimited(z, dictBytes, lim)
			if err != nil {
				t.Fatalf("%s %s: local dict decode: %v", front, class, err)
			}
			if !bytes.Equal(got, p) {
				t.Fatalf("%s %s: local dict decode mismatch", front, class)
			}
			// …and must NOT decode without it (FDICT header refuses).
			if _, err := deflate.ZlibDecompressLimited(z, lim); err == nil {
				t.Fatalf("%s %s: dict stream decoded without the dictionary", front, class)
			}
			// Server-side decompress with the same negotiation.
			var back []byte
			if front == "http" {
				back, err = hc.DecompressDict(ctx, z, class)
			} else {
				back, err = tc.DecompressDict(z, class)
				if tc.LastDictID() != class {
					t.Fatalf("tcp %s: response echoed dict %q", class, tc.LastDictID())
				}
			}
			if err != nil {
				t.Fatalf("%s %s: decompress: %v", front, class, err)
			}
			if !bytes.Equal(back, p) {
				t.Fatalf("%s %s: server decompress mismatch", front, class)
			}
		}
	}

	// The ratio win: with a dictionary, the dictionary-trained payload
	// compresses strictly tighter than without.
	p := payloads["json"]
	plain, err := hc.Compress(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	dicted, err := hc.CompressDict(ctx, p, "json")
	if err != nil {
		t.Fatal(err)
	}
	if len(dicted) >= len(plain) {
		t.Fatalf("dictionary did not help: %d >= %d bytes", len(dicted), len(plain))
	}

	srv.Close() //nolint:errcheck
	check()
}

// TestServerDictResilient: Config.Resilient covers dictionary requests.
// Every segment's first attempt panics; a dictionary request on either
// front must still be answered OK with a stream that round-trips
// against the dictionary, after the hook ran twice per segment.
func TestServerDictResilient(t *testing.T) {
	check := leakCheck(t)
	reg, err := dict.NewBuiltinRegistry()
	if err != nil {
		t.Fatal(err)
	}
	var attempts atomic.Int64
	srv, httpAddr, tcpAddr := newTestServer(t, server.Config{
		Segment:   8 << 10,
		Resilient: true,
		Dicts:     reg,
		SegmentHook: func(ctx context.Context, seg, attempt int) error {
			attempts.Add(1)
			if attempt == 0 {
				panic(fmt.Sprintf("injected panic in segment %d", seg))
			}
			return nil
		},
	})
	lim := srv.Config().Decode
	p := workload.Wiki(48<<10, 7) // six 8 KiB segments
	hc := client.NewHTTP(httpAddr)
	tc, err := client.DialTCP(tcpAddr, 0)
	if err != nil {
		t.Fatal(err)
	}
	tc.SetDeadline(time.Now().Add(60 * time.Second)) //nolint:errcheck
	for _, front := range []string{"http", "tcp"} {
		before := attempts.Load()
		var z []byte
		if front == "http" {
			z, err = hc.CompressDict(context.Background(), p, "wiki")
		} else {
			z, err = tc.CompressDict(p, "wiki")
		}
		if err != nil {
			t.Fatalf("%s: dictionary compress under panicking workers: %v", front, err)
		}
		if err := roundTripCheckDict(z, p, "wiki", lim); err != nil {
			t.Fatalf("%s: %v", front, err)
		}
		if n := attempts.Load() - before; n != 12 {
			t.Fatalf("%s: hook ran %d times, want 12 (a panic and a retry per segment)", front, n)
		}
	}
	tc.Close()
	srv.Close() //nolint:errcheck
	check()
}

// TestServerDictHTTPHeaders pins the HTTP response-header contract:
// the negotiated dictionary is echoed in X-Lzss-Dict and compressed
// bodies are marked Cache-Control: no-transform.
func TestServerDictHTTPHeaders(t *testing.T) {
	_, httpAddr, _ := newDictServer(t, 0, false)
	p := workload.Wiki(8<<10, 3)

	req, err := http.NewRequest(http.MethodPost, "http://"+httpAddr+"/compress", bytes.NewReader(p))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(server.DictHeader, "wiki")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	if got := resp.Header.Get(server.DictHeader); got != "wiki" {
		t.Fatalf("%s = %q, want wiki", server.DictHeader, got)
	}
	if got := resp.Header.Get("Cache-Control"); got != "no-transform" {
		t.Fatalf("Cache-Control = %q, want no-transform", got)
	}
}

// TestServerUnknownDict: a bogus dictionary ID is a deterministic
// in-band rejection on both fronts — ErrUnknownDict, connection still
// usable, no engine slot consumed.
func TestServerUnknownDict(t *testing.T) {
	srv, httpAddr, tcpAddr := newDictServer(t, 0, false)
	ctx := context.Background()
	p := []byte("some payload")

	hc := client.NewHTTP(httpAddr)
	if _, err := hc.CompressDict(ctx, p, "nope"); !errors.Is(err, server.ErrUnknownDict) {
		t.Fatalf("http unknown dict err = %v, want ErrUnknownDict", err)
	}
	tc, err := client.DialTCP(tcpAddr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	tc.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
	if _, err := tc.CompressDict(p, "nope"); !errors.Is(err, server.ErrUnknownDict) {
		t.Fatalf("tcp unknown dict err = %v, want ErrUnknownDict", err)
	}
	// The rejection is in-band: the same connection keeps serving.
	z, err := tc.CompressDict(p, "wiki")
	if err != nil {
		t.Fatalf("connection unusable after unknown-dict rejection: %v", err)
	}
	if _, err := tc.DecompressDict(z, "wiki"); err != nil {
		t.Fatal(err)
	}
	// No slot was consumed by the rejections. A served framed request
	// releases its slot just after its response is written, so wait for
	// the last one's release rather than read the gauge at once.
	waitFor(t, "every engine slot released after the rejections", func() bool { return srv.Inflight() == 0 })

	// A nil registry rejects every negotiation the same way.
	_, httpAddr2, _ := newTestServer(t, server.Config{})
	if _, err := client.NewHTTP(httpAddr2).CompressDict(ctx, p, "wiki"); !errors.Is(err, server.ErrUnknownDict) {
		t.Fatalf("no-registry err = %v, want ErrUnknownDict", err)
	}
}

// TestServerDictsEndpoint reads GET /dicts through the client.
func TestServerDictsEndpoint(t *testing.T) {
	_, httpAddr, _ := newDictServer(t, 0, false)
	ctx := context.Background()
	hc := client.NewHTTP(httpAddr)
	// Register a hit so the listing carries a live counter.
	if _, err := hc.CompressDict(ctx, []byte("hello"), "can"); err != nil {
		t.Fatal(err)
	}
	infos, err := hc.Dicts(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(dict.BuiltinClasses()) {
		t.Fatalf("listed %d dictionaries, want %d", len(infos), len(dict.BuiltinClasses()))
	}
	byName := map[string]client.DictInfo{}
	for _, in := range infos {
		byName[in.Name] = in
	}
	can, ok := byName["can"]
	if !ok || can.Bytes == 0 || can.Adler == 0 {
		t.Fatalf("can entry missing or empty: %+v", infos)
	}
	if can.Hits < 1 {
		t.Fatalf("can hits = %d, want >= 1", can.Hits)
	}
}

// TestServerCacheServing: with CacheBytes set, a repeated request is a
// hit (same bytes out), a different dictionary variant of the same
// payload is its own entry, and the stats ledger adds up. Runs with
// paranoid verify on, so every hit also re-inflates server-side.
func TestServerCacheServing(t *testing.T) {
	srv, httpAddr, tcpAddr := newDictServer(t, 32<<20, true)
	ctx := context.Background()
	p := workload.Wiki(32<<10, 11)

	hc := client.NewHTTP(httpAddr)
	z1, err := hc.Compress(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	// Second trip — other front, same engine cache.
	tc, err := client.DialTCP(tcpAddr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	tc.SetDeadline(time.Now().Add(60 * time.Second)) //nolint:errcheck
	z2, err := tc.Compress(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(z1, z2) {
		t.Fatal("cache hit served different bytes")
	}
	st := srv.CacheStats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("after repeat: hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
	// Same payload, different dictionary: its own cache entry.
	if _, err := tc.CompressDict(p, "wiki"); err != nil {
		t.Fatal(err)
	}
	st = srv.CacheStats()
	if st.Misses != 2 {
		t.Fatalf("dict variant not keyed separately: misses=%d", st.Misses)
	}
	if st.Entries != 2 || st.Bytes <= 0 {
		t.Fatalf("occupancy entries=%d bytes=%d", st.Entries, st.Bytes)
	}
	if st.VerifyFailures != 0 {
		t.Fatalf("verify failures: %d", st.VerifyFailures)
	}
}

// TestServerCacheStampedeE2E is the singleflight soak at the serving
// layer: 64 concurrent clients request the same hot block through real
// sockets, and the engine must compress it exactly once — everyone
// else coalesces onto that flight or hits the stored entry.
func TestServerCacheStampedeE2E(t *testing.T) {
	srv, httpAddr, _ := newDictServer(t, 32<<20, false)
	ctx := context.Background()
	p := workload.Wiki(64<<10, 21)

	const waiters = 64
	start := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, waiters)
	results := make([][]byte, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hc := client.NewHTTP(httpAddr)
			<-start
			z, err := hc.Compress(ctx, p)
			if err != nil {
				errc <- fmt.Errorf("client %d: %w", i, err)
				return
			}
			results[i] = z
		}(i)
	}
	close(start)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	for i := 1; i < waiters; i++ {
		if !bytes.Equal(results[i], results[0]) {
			t.Fatalf("client %d got different bytes", i)
		}
	}
	st := srv.CacheStats()
	if st.Misses != 1 {
		t.Fatalf("stampede ran %d compressions, want exactly 1", st.Misses)
	}
	if st.Hits+st.Coalesced != waiters-1 {
		t.Fatalf("hits=%d coalesced=%d, want sum %d", st.Hits, st.Coalesced, waiters-1)
	}
}
