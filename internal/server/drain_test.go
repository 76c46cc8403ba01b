package server_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"lzssfpga/internal/cluster"
	"lzssfpga/internal/faultinject"
	"lzssfpga/internal/server"
	"lzssfpga/internal/server/client"
	"lzssfpga/internal/workload"
)

// drainable is a framed-TCP front under a drain test: lzssd itself
// (*server.Server) or a cluster front (*cluster.Front) — both run the
// same serving loop.
type drainable interface {
	Shutdown(ctx context.Context) error
	Draining() bool
}

// drainRig is one drain target, started: front is what drains, tcpAddr
// its framed address, and srv the lzssd that does the compressing —
// the front itself, or the one backend behind the cluster front — so
// srv.Inflight counts the requests held in its engine.
type drainRig struct {
	front    drainable
	srv      *server.Server
	tcpAddr  string
	httpAddr string // lzssd's HTTP front; empty for the cluster front
	// teardown releases what outlives the front's drain (the cluster
	// and its backend), so a leak check sees only the front's goroutines.
	teardown func()
}

// drainTargets are the fronts every drain test runs against: lzssd, and
// a cluster front routing to one lzssd backend configured with cfg.
var drainTargets = []struct {
	name  string
	start func(t *testing.T, cfg server.Config) drainRig
}{
	{"lzssd", func(t *testing.T, cfg server.Config) drainRig {
		srv, httpAddr, tcpAddr := newTestServer(t, cfg)
		return drainRig{front: srv, srv: srv, tcpAddr: tcpAddr, httpAddr: httpAddr, teardown: func() {}}
	}},
	{"cluster front", func(t *testing.T, cfg server.Config) drainRig {
		srv, _, backend := newTestServer(t, cfg)
		c, err := cluster.New(cluster.Config{Backends: []cluster.BackendSpec{{TCP: backend}}})
		if err != nil {
			t.Fatal(err)
		}
		f := cluster.NewFront(c, cluster.FrontConfig{})
		addr, err := f.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close(); c.Close() }) //nolint:errcheck
		return drainRig{front: f, srv: srv, tcpAddr: addr, teardown: func() {
			c.Close()
			srv.Close()
		}}
	}},
}

// TestServerDrainCompletesInflight is the drain state machine's
// acceptance test, on lzssd and on a cluster front: requests are held
// mid-compression by a gated SegmentHook — two plain and two pipelined
// on the framed front, two more on lzssd's HTTP front — Shutdown
// begins, new work is refused on every front, and once the gate opens
// every held request must complete byte-exact, Shutdown must return
// nil, and no goroutine may survive.
func TestServerDrainCompletesInflight(t *testing.T) {
	for _, tg := range drainTargets {
		t.Run(tg.name, func(t *testing.T) {
			check := leakCheck(t)
			gate := make(chan struct{})
			rig := tg.start(t, server.Config{
				MaxInflight: 8,
				Resilient:   true,
				SegmentHook: gateHook(gate),
			})
			lim := rig.srv.Config().Decode
			payload := workload.Wiki(8<<10, 11)

			nHeld := 4
			held := make(chan error, 6)
			hold := func(what string, do func() ([]byte, error)) {
				z, err := do()
				if err == nil {
					err = roundTripCheck(z, payload, lim)
				}
				if err != nil {
					err = fmt.Errorf("held %s: %w", what, err)
				}
				held <- err
			}
			mx, err := client.DialMux(rig.tcpAddr, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer mx.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			for i := 0; i < 2; i++ {
				go hold(fmt.Sprintf("tcp %d", i), func() ([]byte, error) {
					tc, err := client.DialTCP(rig.tcpAddr, 0)
					if err != nil {
						return nil, err
					}
					defer tc.Close()
					tc.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
					return tc.Compress(payload)
				})
				go hold(fmt.Sprintf("pipelined %d", i), func() ([]byte, error) { return mx.Compress(ctx, payload) })
				if rig.httpAddr != "" {
					nHeld++
					go hold(fmt.Sprintf("http %d", i), func() ([]byte, error) {
						return client.NewHTTP(rig.httpAddr).Compress(context.Background(), payload)
					})
				}
			}
			waitFor(t, "every held request in flight", func() bool { return rig.srv.Inflight() == int64(nHeld) })

			shutdownErr := make(chan error, 1)
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				shutdownErr <- rig.front.Shutdown(ctx)
			}()
			waitFor(t, "drain to begin", rig.front.Draining)

			// New work is refused while draining. The TCP listener is
			// closed, so either the dial itself fails or the accept loop
			// closes the fresh connection before it can be served.
			if tc, err := client.DialTCP(rig.tcpAddr, 0); err == nil {
				tc.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
				if _, err := tc.Compress([]byte("late")); err == nil {
					t.Fatal("draining front accepted new TCP work")
				}
				tc.Close()
			}
			// The HTTP front either refuses the connection (listener
			// closed) or answers 503 on a reused one.
			if rig.httpAddr != "" {
				hc := client.NewHTTP(rig.httpAddr)
				if _, err := hc.Compress(context.Background(), []byte("late")); err == nil {
					t.Fatal("draining server accepted new HTTP work")
				} else if !errors.Is(err, server.ErrDraining) {
					t.Logf("late HTTP request refused at the connection level: %v", err)
				}
			}

			// In-flight work was not touched by any of that.
			if n := rig.srv.Inflight(); n != int64(nHeld) {
				t.Fatalf("drain disturbed in-flight requests: %d left of %d", n, nHeld)
			}

			close(gate)
			for i := 0; i < nHeld; i++ {
				if err := <-held; err != nil {
					t.Fatal(err)
				}
			}
			if err := <-shutdownErr; err != nil {
				t.Fatalf("graceful drain returned %v, want nil", err)
			}
			mx.Close()
			rig.teardown()
			check()
		})
	}
}

// TestServerDrainHalfReceivedRequest: a drain that begins while a
// request is half received must not cut it off. The connection is
// mid-message, so the drain's poke waits for its next idle point: the
// rest of the request arrives, is served StatusOK and round-trips
// byte-exact, and Shutdown returns nil.
func TestServerDrainHalfReceivedRequest(t *testing.T) {
	for _, tg := range drainTargets {
		t.Run(tg.name, func(t *testing.T) {
			rig := tg.start(t, server.Config{})
			payload := workload.Wiki(64<<10, 17)
			wire, err := server.AppendMessage(nil, &server.Message{Op: server.OpCompress, Payload: payload})
			if err != nil {
				t.Fatal(err)
			}
			c, err := net.Dial("tcp", rig.tcpAddr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
			half := len(wire) / 2
			if _, err := c.Write(wire[:half]); err != nil {
				t.Fatal(err)
			}
			// Let the read loop start receiving: a drain that finds the
			// connection still idle rightly closes it unread.
			time.Sleep(100 * time.Millisecond)

			shutdownErr := make(chan error, 1)
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				shutdownErr <- rig.front.Shutdown(ctx)
			}()
			time.Sleep(100 * time.Millisecond)
			if _, err := c.Write(wire[half:]); err != nil {
				t.Fatal(err)
			}
			resp, err := server.ReadMessage(c, 1<<20)
			if err != nil {
				t.Fatalf("reading the response: %v", err)
			}
			if resp.Status != server.StatusOK {
				t.Fatalf("half-received request answered status %d (%s), want StatusOK", resp.Status, resp.Payload)
			}
			if err := roundTripCheck(resp.Payload, payload, rig.srv.Config().Decode); err != nil {
				t.Fatal(err)
			}
			if err := <-shutdownErr; err != nil {
				t.Fatalf("drain returned %v, want nil", err)
			}
		})
	}
}

// TestServerDrainDeadlineForces verifies the other edge of the state
// machine: when in-flight work outlives the drain budget, Shutdown
// reports the deadline instead of hanging forever.
func TestServerDrainDeadlineForces(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate) // let the stuck request die before Cleanup's Close
	srv, httpAddr, _ := newTestServer(t, server.Config{
		Resilient:   true,
		SegmentHook: gateHook(gate),
	})
	hc := client.NewHTTP(httpAddr)
	go hc.Compress(context.Background(), workload.Wiki(4<<10, 13)) //nolint:errcheck // it is never answered
	waitFor(t, "stuck request in flight", func() bool { return srv.Inflight() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain returned %v, want DeadlineExceeded", err)
	}
}

// TestServerSoakUnderStalls is the sustained-load run with the fault
// injector stalling workers underneath: 12 mixed clients loop the
// payload set against a resilient server whose segments randomly stall,
// every response must still re-inflate byte-exact, and a full
// close afterwards must leave no goroutines.
func TestServerSoakUnderStalls(t *testing.T) {
	if testing.Short() {
		t.Skip("soak under -short")
	}
	check := leakCheck(t)
	inj := faultinject.New(faultinject.Spec{WorkerStall: 0.4, StallMS: 20, Seed: 1})
	srv, httpAddr, tcpAddr := newTestServer(t, server.Config{
		Segment:     8 << 10,
		MaxInflight: 32,
		Resilient:   true,
		SegmentHook: inj.SegmentHook,
	})
	lim := srv.Config().Decode
	payloads := e2ePayloads()

	const clients = 12
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
	if s := inj.Stats(); s.StallsInjected == 0 {
		t.Fatal("no stalls injected — the soak exercised nothing")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	check()
}
