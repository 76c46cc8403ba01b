package server_test

import (
	"bytes"
	"compress/zlib"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lzssfpga/internal/cache/dict"
	"lzssfpga/internal/obs"
	"lzssfpga/internal/server"
	"lzssfpga/internal/server/client"
	"lzssfpga/internal/workload"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// gateHook returns a SegmentHook that blocks every compression attempt
// until the gate channel closes (or the attempt's context ends) — the
// deterministic way to hold requests in flight.
func gateHook(gate <-chan struct{}) func(ctx context.Context, seg, attempt int) error {
	return func(ctx context.Context, seg, attempt int) error {
		select {
		case <-gate:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// TestServerHTTPErrors is the error-path table: each hostile request
// must map onto its documented status code, and the connection-level
// typed error on the client side.
func TestServerHTTPErrors(t *testing.T) {
	_, httpAddr, _ := newTestServer(t, server.Config{MaxRequestBytes: 1024})
	hc := client.NewHTTP(httpAddr)
	ctx := context.Background()

	cases := []struct {
		name       string
		do         func() (int, error)
		wantStatus int
		wantErr    error
	}{
		{
			name: "GET compress is method not allowed",
			do: func() (int, error) {
				resp, err := http.Get("http://" + httpAddr + "/compress")
				if err != nil {
					return 0, err
				}
				resp.Body.Close()
				return resp.StatusCode, nil
			},
			wantStatus: http.StatusMethodNotAllowed,
		},
		{
			name: "oversize body is 413",
			do: func() (int, error) {
				_, err := hc.Compress(ctx, bytes.Repeat([]byte{1}, 4096))
				return 0, err
			},
			wantErr: server.ErrTooLarge,
		},
		{
			name: "oversize chunked body is 413",
			do: func() (int, error) {
				// Unknown length: only the cap, not Content-Length, can
				// stop this one.
				rc, err := hc.CompressStream(ctx, struct{ io.Reader }{bytes.NewReader(bytes.Repeat([]byte{2}, 4096))})
				if err == nil {
					rc.Close()
				}
				return 0, err
			},
			wantErr: server.ErrTooLarge,
		},
		{
			name: "malformed decompress input is 400",
			do: func() (int, error) {
				_, err := hc.Decompress(ctx, []byte("this is not a zlib stream"))
				return 0, err
			},
			wantErr: server.ErrCorrupt,
		},
		{
			name: "unknown path is 404",
			do: func() (int, error) {
				resp, err := http.Post("http://"+httpAddr+"/nope", "application/octet-stream", nil)
				if err != nil {
					return 0, err
				}
				resp.Body.Close()
				return resp.StatusCode, nil
			},
			wantStatus: http.StatusNotFound,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, err := tc.do()
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("got error %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if status != tc.wantStatus {
				t.Fatalf("got status %d, want %d", status, tc.wantStatus)
			}
		})
	}
}

// TestServerTruncatedChunkedBody cuts a chunked request off mid-chunk
// (half-closing the socket so the 400 is still readable): the body read
// fails and the server must answer 400, not hang or 200.
func TestServerTruncatedChunkedBody(t *testing.T) {
	_, httpAddr, _ := newTestServer(t, server.Config{})
	c, err := net.Dial("tcp", httpAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = io.WriteString(c, "POST /compress HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n10\r\ntrunc")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	reply, err := io.ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	status := strings.SplitN(string(reply), "\r\n", 2)[0]
	if !strings.Contains(status, "400") {
		t.Fatalf("truncated chunked body answered %q, want a 400 status line", status)
	}
}

// TestServerBackpressureBusy fills the single engine slot with a held
// request and verifies both fronts bounce the overflow — HTTP with 429
// and Retry-After, the wire protocol with StatusBusy on a connection
// that stays usable — then releases the gate and requires the held
// request to finish byte-exact.
func TestServerBackpressureBusy(t *testing.T) {
	gate := make(chan struct{})
	srv, httpAddr, tcpAddr := newTestServer(t, server.Config{
		MaxInflight: 1,
		Resilient:   true,
		SegmentHook: gateHook(gate),
	})
	lim := srv.Config().Decode
	payload := workload.Wiki(4<<10, 3)

	hc := client.NewHTTP(httpAddr)
	held := make(chan error, 1)
	go func() {
		z, err := hc.Compress(context.Background(), payload)
		if err == nil {
			err = roundTripCheck(z, payload, lim)
		}
		held <- err
	}()
	waitFor(t, "held request to take the slot", func() bool { return srv.Inflight() == 1 })

	// HTTP overflow: 429 with Retry-After.
	resp, err := http.Post("http://"+httpAddr+"/compress", "application/octet-stream", bytes.NewReader([]byte("x")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request got %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After header")
	}
	if _, err := hc.Compress(context.Background(), []byte("x")); !errors.Is(err, server.ErrBusy) {
		t.Fatalf("client error = %v, want ErrBusy", err)
	}

	// Wire-protocol overflow: StatusBusy, and the connection survives to
	// serve the retry once the gate opens.
	tc, err := client.DialMuxTimeout(tcpAddr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := tc.Compress(ctx, []byte("y")); !errors.Is(err, server.ErrBusy) {
		t.Fatalf("wire error = %v, want ErrBusy", err)
	}

	close(gate)
	if err := <-held; err != nil {
		t.Fatalf("held request after release: %v", err)
	}
	z, err := tc.Compress(ctx, payload)
	if err != nil {
		t.Fatalf("retry on the bounced connection: %v", err)
	}
	if err := roundTripCheck(z, payload, lim); err != nil {
		t.Fatal(err)
	}
}

// TestServerClientDisconnectReleasesSlot cancels an HTTP request while
// its compression is held mid-flight: the slot must come back (no
// leak into permanent 429s) and the next request must succeed. The
// preset-dictionary row holds too: dictionary requests run the
// configured resilient path under the request's context, so the gate
// hook holds them and the disconnect stops their compute.
func TestServerClientDisconnectReleasesSlot(t *testing.T) {
	for _, tc := range []struct{ name, dictID string }{{"plain", ""}, {"wiki-dict", "wiki"}} {
		t.Run(tc.name, func(t *testing.T) {
			check := leakCheck(t)
			reg, err := dict.NewBuiltinRegistry()
			if err != nil {
				t.Fatal(err)
			}
			gate := make(chan struct{})
			srv, httpAddr, _ := newTestServer(t, server.Config{
				MaxInflight: 1,
				Resilient:   true,
				SegmentHook: gateHook(gate),
				Dicts:       reg,
			})
			lim := srv.Config().Decode
			payload := workload.Wiki(4<<10, 9)

			hc := client.NewHTTP(httpAddr)
			ctx, cancel := context.WithCancel(context.Background())
			gone := make(chan struct{})
			go func() {
				defer close(gone)
				hc.CompressDict(ctx, payload, tc.dictID) //nolint:errcheck // failure is the point
			}()
			waitFor(t, "doomed request to take the slot", func() bool { return srv.Inflight() == 1 })
			// The request must still be held by the gate, not finished.
			select {
			case <-gone:
				t.Fatal("request completed without waiting on the gate hook")
			case <-time.After(50 * time.Millisecond):
			}
			cancel()
			<-gone
			waitFor(t, "slot release after disconnect", func() bool { return srv.Inflight() == 0 })

			// The slot is back: the next request must be served, not bounced.
			close(gate)
			z, err := hc.CompressDict(context.Background(), payload, tc.dictID)
			if err != nil {
				t.Fatalf("request after disconnect: %v", err)
			}
			if err := roundTripCheckDict(z, payload, tc.dictID, lim); err != nil {
				t.Fatal(err)
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			check()
		})
	}
}

// TestServerTCPProtocolErrors drives the wire front's in-band failure
// answers: corrupt bytes, oversize announcements and bad decompress
// input must all come back as typed statuses, never hangs.
func TestServerTCPProtocolErrors(t *testing.T) {
	srv, _, tcpAddr := newTestServer(t, server.Config{MaxRequestBytes: 1024})
	_ = srv

	t.Run("garbage bytes answer StatusCorrupt", func(t *testing.T) {
		c, err := net.Dial("tcp", tcpAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		if _, err := c.Write(bytes.Repeat([]byte{0xFF}, 64)); err != nil {
			t.Fatal(err)
		}
		m, err := server.ReadMessage(c, 1<<20)
		if err != nil {
			t.Fatalf("reading error response: %v", err)
		}
		if m.Op != server.OpResponse || m.Status != server.StatusCorrupt {
			t.Fatalf("got op %d status %d, want OpResponse/StatusCorrupt", m.Op, m.Status)
		}
	})

	t.Run("oversize request answers StatusTooLarge", func(t *testing.T) {
		c, err := net.Dial("tcp", tcpAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		_, err = plainDo(c, &server.Message{Op: server.OpCompress, Payload: bytes.Repeat([]byte{3}, 4096)})
		if !errors.Is(err, server.ErrTooLarge) {
			t.Fatalf("got %v, want ErrTooLarge", err)
		}
	})

	t.Run("oversize pipelined request answers StatusTooLarge under its request ID", func(t *testing.T) {
		// The rejection must carry the request ID: a multiplexed client
		// matches responses by it, and an ID-less answer poisons the
		// whole connection instead of failing the one request.
		mx, err := client.DialMuxTimeout(tcpAddr, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer mx.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, err = mx.Compress(ctx, bytes.Repeat([]byte{3}, 4096))
		if !errors.Is(err, server.ErrTooLarge) {
			t.Fatalf("got %v, want ErrTooLarge", err)
		}
	})

	t.Run("bad decompress input answers StatusCorrupt and keeps the connection", func(t *testing.T) {
		tc, err := client.DialMuxTimeout(tcpAddr, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer tc.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, err := tc.Decompress(ctx, []byte("junk")); !errors.Is(err, server.ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
		// Same connection must still serve a well-formed request.
		p := []byte("still alive")
		z, err := tc.Compress(ctx, p)
		if err != nil {
			t.Fatalf("compress after in-band error: %v", err)
		}
		if err := roundTripCheck(z, p, srv.Config().Decode); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("connection byte budget closes with StatusConnLimit", func(t *testing.T) {
		srv2, _, tcpAddr2 := newTestServer(t, server.Config{MaxRequestBytes: 1024, MaxConnBytes: 600})
		_ = srv2
		tc, err := client.DialMuxTimeout(tcpAddr2, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer tc.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, err := tc.Compress(ctx, bytes.Repeat([]byte{4}, 500)); err != nil {
			t.Fatalf("first request within budget: %v", err)
		}
		_, err = tc.Compress(ctx, bytes.Repeat([]byte{5}, 500))
		if !errors.Is(err, server.ErrTooLarge) {
			t.Fatalf("budget overflow got %v, want the conn-limit ErrTooLarge", err)
		}
	})
}

// TestServerErrorTextIsWrapped double-checks the client mapping: every
// typed error keeps enough server detail to debug from the caller side.
func TestServerErrorTextIsWrapped(t *testing.T) {
	_, httpAddr, _ := newTestServer(t, server.Config{MaxRequestBytes: 1024})
	hc := client.NewHTTP(httpAddr)
	_, err := hc.Compress(context.Background(), bytes.Repeat([]byte{1}, 4096))
	if err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("413 error lost its detail text: %v", err)
	}
	if !errors.Is(err, server.ErrTooLarge) {
		t.Fatalf("not typed: %v", err)
	}
}

// goneWriter is the ResponseWriter of a client that has gone away:
// every body write fails.
type goneWriter struct{ h http.Header }

var errClientGone = errors.New("client went away")

func (g *goneWriter) Header() http.Header       { return g.h }
func (g *goneWriter) WriteHeader(int)           {}
func (g *goneWriter) Write([]byte) (int, error) { return 0, errClientGone }

// TestServerHTTPFailedWriteIsAnError: when the response body cannot be
// written, both HTTP operations must trace the request as failed (the
// slow-request log reports it at level=error with the write's error and
// no bytes out) and must not count it in server_response_bytes.
func TestServerHTTPFailedWriteIsAnError(t *testing.T) {
	reg := obs.NewRegistry()
	server.SetObservability(reg)
	defer server.SetObservability(nil)
	logged := &syncWriter{}
	srv, err := server.New(server.Config{SlowLog: time.Nanosecond, Log: logged})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck
	plain := workload.Wiki(1200, 1)
	var z bytes.Buffer
	zw := zlib.NewWriter(&z)
	if _, err := zw.Write(plain); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	h := srv.HTTPHandler()
	for _, tc := range []struct {
		op   string
		body []byte
	}{{"compress", plain}, {"decompress", z.Bytes()}} {
		before := len(logged.String())
		h.ServeHTTP(&goneWriter{h: http.Header{}},
			httptest.NewRequest(http.MethodPost, "/"+tc.op, bytes.NewReader(tc.body)))
		line := logged.String()[before:]
		for _, want := range []string{"level=error", " op=" + tc.op + " ", " out=0 ", ` err="`, `client went away"`} {
			if !strings.Contains(line, want) {
				t.Errorf("%s: log line lacks %q:\n%s", tc.op, want, line)
			}
		}
	}
	snap := reg.Snapshot()
	count, ok := snap[obs.ServerResponseBytes+"_count"]
	if !ok {
		t.Fatalf("%s_count not in the registry snapshot", obs.ServerResponseBytes)
	}
	if count != 0 {
		t.Fatalf("%s counted %v responses that never left", obs.ServerResponseBytes, count)
	}
}
