package server_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"lzssfpga/internal/cache/dict"
	"lzssfpga/internal/deflate"
	"lzssfpga/internal/server"
	"lzssfpga/internal/server/client"
	"lzssfpga/internal/workload"
)

// newTestServer starts a Server on loopback with both fronts bound to
// free ports and tears it down with the test.
func newTestServer(t *testing.T, cfg server.Config) (srv *server.Server, httpAddr, tcpAddr string) {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	httpAddr, err = srv.ListenHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tcpAddr, err = srv.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck
	return srv, httpAddr, tcpAddr
}

// leakCheck snapshots the goroutine count (engine parked first, so the
// baseline is honest) and returns the closure that fails the test if
// the count has not returned to it. HTTP keep-alive connections idle in
// the default transport are flushed inside the retry loop — their
// readLoop goroutines are the usual false positive.
func leakCheck(t *testing.T) func() {
	t.Helper()
	deflate.ResetDefaultEngine()
	runtime.GC()
	baseline := runtime.NumGoroutine()
	return func() {
		deflate.ResetDefaultEngine()
		deadline := time.Now().Add(2 * time.Second)
		for {
			if tr, ok := http.DefaultTransport.(*http.Transport); ok {
				tr.CloseIdleConnections()
			}
			runtime.GC()
			n := runtime.NumGoroutine()
			if n <= baseline {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("goroutine leak: %d > baseline %d\n%s",
					n, baseline, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// e2ePayloads is the mixed payload set every client cycles through:
// the empty transfer, a single byte, an incompressible random block,
// and a text block long enough to cut into many segments.
func e2ePayloads() [][]byte {
	rng := rand.New(rand.NewSource(42))
	incompressible := make([]byte, 32<<10)
	rng.Read(incompressible)
	return [][]byte{
		{},
		{0xA5},
		incompressible,
		workload.Wiki(64<<10, 7),
	}
}

// roundTripCheck verifies one compress result: the zlib stream must
// re-inflate byte-exact through the hardened limited decoder.
func roundTripCheck(z, want []byte, lim deflate.DecodeLimits) error {
	got, err := deflate.ZlibDecompressLimited(z, lim)
	if err != nil {
		return fmt.Errorf("re-inflating %d-byte response: %w", len(z), err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("round trip mismatch: %d bytes in, %d back", len(want), len(got))
	}
	return nil
}

// roundTripCheckDict is roundTripCheck for a stream compressed against
// the built-in dictionary class dictID ("" = no dictionary).
func roundTripCheckDict(z, want []byte, dictID string, lim deflate.DecodeLimits) error {
	if dictID == "" {
		return roundTripCheck(z, want, lim)
	}
	d, err := dict.Builtin(dictID)
	if err != nil {
		return err
	}
	got, err := deflate.ZlibDecompressDictLimited(z, d, lim)
	if err != nil {
		return fmt.Errorf("re-inflating %d-byte response against dictionary %q: %w", len(z), dictID, err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("dictionary round trip mismatch: %d bytes in, %d back", len(want), len(got))
	}
	return nil
}

// TestServerE2EConcurrentClients is the acceptance run: 36 concurrent
// clients (half HTTP, half framed TCP) hammer one server with mixed
// payloads, and every response must re-inflate byte-exact. The small
// segment size forces the larger payloads through many engine segments
// per request, so requests genuinely interleave on the shared engine.
func TestServerE2EConcurrentClients(t *testing.T) {
	check := leakCheck(t)
	// MaxInflight is provisioned above the client count: this test is
	// about byte-exactness under concurrency, not the backpressure gate
	// (TestServerBackpressureBusy covers deliberate rejection).
	srv, httpAddr, tcpAddr := newTestServer(t, server.Config{Segment: 8 << 10, MaxInflight: 64})
	lim := srv.Config().Decode
	payloads := e2ePayloads()

	const clients = 36
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				errc <- runHTTPClient(i, httpAddr, lim, payloads)
			} else {
				errc <- runTCPClient(i, tcpAddr, lim, payloads)
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	check()
}

// runHTTPClient drives one HTTP client through every payload in two
// payload loops: compress, verify locally, then round-trip the stream back
// through /decompress. One iteration uses a chunked (unknown-length)
// request body to exercise the streaming read path.
func runHTTPClient(id int, addr string, lim deflate.DecodeLimits, payloads [][]byte) error {
	hc := client.NewHTTP(addr)
	ctx := context.Background()
	for it := 0; it < 2; it++ {
		for pi, p := range payloads {
			var z []byte
			var err error
			if it == 1 {
				// Hide the length so the client sends chunked encoding.
				var rc io.ReadCloser
				rc, err = hc.CompressStream(ctx, struct{ io.Reader }{bytes.NewReader(p)})
				if err == nil {
					z, err = io.ReadAll(rc)
					rc.Close()
				}
			} else {
				z, err = hc.Compress(ctx, p)
			}
			if err != nil {
				return fmt.Errorf("http client %d it %d payload %d: compress: %w", id, it, pi, err)
			}
			if err := roundTripCheck(z, p, lim); err != nil {
				return fmt.Errorf("http client %d it %d payload %d: %w", id, it, pi, err)
			}
			back, err := hc.Decompress(ctx, z)
			if err != nil {
				return fmt.Errorf("http client %d it %d payload %d: decompress: %w", id, it, pi, err)
			}
			if !bytes.Equal(back, p) {
				return fmt.Errorf("http client %d it %d payload %d: server decompress mismatch", id, it, pi)
			}
		}
	}
	return nil
}

// runTCPClient drives one framed-protocol connection through every
// payload twice — all requests ride the same connection, so the
// idle→receive→serve cycle repeats under concurrency.
func runTCPClient(id int, addr string, lim deflate.DecodeLimits, payloads [][]byte) error {
	tc, err := client.DialTCP(addr, 0)
	if err != nil {
		return fmt.Errorf("tcp client %d: dial: %w", id, err)
	}
	defer tc.Close()
	tc.SetDeadline(time.Now().Add(60 * time.Second)) //nolint:errcheck
	for it := 0; it < 2; it++ {
		for pi, p := range payloads {
			z, err := tc.Compress(p)
			if err != nil {
				return fmt.Errorf("tcp client %d it %d payload %d: compress: %w", id, it, pi, err)
			}
			if err := roundTripCheck(z, p, lim); err != nil {
				return fmt.Errorf("tcp client %d it %d payload %d: %w", id, it, pi, err)
			}
			back, err := tc.Decompress(z)
			if err != nil {
				return fmt.Errorf("tcp client %d it %d payload %d: decompress: %w", id, it, pi, err)
			}
			if !bytes.Equal(back, p) {
				return fmt.Errorf("tcp client %d it %d payload %d: server decompress mismatch", id, it, pi)
			}
		}
	}
	return nil
}
