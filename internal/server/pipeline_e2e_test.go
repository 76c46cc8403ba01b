package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"lzssfpga/internal/server"
	"lzssfpga/internal/server/client"
)

// TestServerPipelinedConn is the server half of the multiplexing
// contract: ONE framed-TCP connection carries many concurrent
// requests, the server serves them in parallel (responses leave in
// completion order, stamped with the matching request ID), and every
// round trip is byte-exact.
func TestServerPipelinedConn(t *testing.T) {
	check := leakCheck(t)
	srv, _, tcpAddr := newTestServer(t, server.Config{Segment: 8 << 10, MaxInflight: 64})
	lim := srv.Config().Decode
	payloads := e2ePayloads()

	m, err := client.DialMuxTimeout(tcpAddr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const inflight = 12 // ≥8 concurrent in-flight requests, one conn
	const rounds = 4
	var wg sync.WaitGroup
	errc := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				data := payloads[(i+r)%len(payloads)]
				z, err := m.Compress(ctx, data)
				if err != nil {
					errc <- fmt.Errorf("client %d round %d: compress: %w", i, r, err)
					return
				}
				if err := roundTripCheck(z, data, lim); err != nil {
					errc <- fmt.Errorf("client %d round %d: %w", i, r, err)
					return
				}
				back, err := m.Decompress(ctx, z)
				if err != nil {
					errc <- fmt.Errorf("client %d round %d: decompress: %w", i, r, err)
					return
				}
				if len(back) != len(data) {
					errc <- fmt.Errorf("client %d round %d: decompress length %d != %d", i, r, len(back), len(data))
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if got := srv.ActiveConns(); got != 1 {
		t.Fatalf("expected all pipelined traffic on one connection, server sees %d", got)
	}
	m.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	check()
}

// TestServerPipelineBudget pins the per-connection pipelining cap:
// once MaxPipelined requests are in flight on a connection, the next
// pipelined request bounces immediately with StatusBusy (a retryable
// in-band rejection, not a stall and not a closed conn).
func TestServerPipelineBudget(t *testing.T) {
	gate := make(chan struct{})
	released := false
	defer func() {
		if !released {
			close(gate)
		}
	}()
	srv, _, tcpAddr := newTestServer(t, server.Config{
		MaxPipelined: 2,
		MaxInflight:  16,
		Resilient:    true,
		SegmentHook: func(ctx context.Context, seg, attempt int) error {
			select {
			case <-gate:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	})
	m, err := client.DialMuxTimeout(tcpAddr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Two requests fill the pipeline budget and park inside the engine
	// on the gated segment hook.
	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			_, err := m.Compress(ctx, []byte(fmt.Sprintf("parked request %d", i)))
			results <- err
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.Inflight() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("parked requests never reached the engine")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The third pipelined request on the same connection must bounce
	// with the busy status while the budget is spent.
	if _, err := m.Compress(ctx, []byte("over budget")); !errors.Is(err, server.ErrBusy) {
		t.Fatalf("over-budget request: want ErrBusy, got %v", err)
	}
	close(gate)
	released = true
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("parked request %d: %v", i, err)
		}
	}
	// The connection survived the rejection: another request succeeds.
	if _, err := m.Compress(ctx, []byte("after release")); err != nil {
		t.Fatalf("request after budget release: %v", err)
	}
}

// TestHealthzJSON pins the ?fmt=json health document against the
// plain-text form on a live server: same status codes, structured
// state for the cluster prober, byte-identical plain form.
func TestHealthzJSON(t *testing.T) {
	srv, httpAddr, _ := newTestServer(t, server.Config{})
	resp, err := http.Get("http://" + httpAddr + "/healthz?fmt=json")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	var doc struct {
		State       string `json:"state"`
		Inflight    int    `json:"inflight"`
		MaxInflight int    `json:"max_inflight"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("parsing %q: %v", body, err)
	}
	if doc.State != "serving" || doc.Inflight != 0 || doc.MaxInflight != srv.Config().MaxInflight {
		t.Fatalf("unexpected health doc %+v (want serving/0/%d)", doc, srv.Config().MaxInflight)
	}

	plain, err := http.Get("http://" + httpAddr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := io.ReadAll(plain.Body)
	plain.Body.Close()
	if plain.StatusCode != http.StatusOK || string(pb) != "ok\n" {
		t.Fatalf("plain form drifted: %d %q", plain.StatusCode, pb)
	}
}
