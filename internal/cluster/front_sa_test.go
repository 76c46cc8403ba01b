package cluster

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"lzssfpga/internal/deflate"
	"lzssfpga/internal/lzss"
	"lzssfpga/internal/server"
	"lzssfpga/internal/server/client"
	"lzssfpga/internal/workload"
)

// newSABackend is newTestBackend at the suffix-array tier: every fleet
// member serves -level 11 (SARatioParams), the cold-storage shape.
func newSABackend(t *testing.T) *testBackend {
	t.Helper()
	b := &testBackend{t: t}
	srv, err := server.New(server.Config{
		Params:      lzss.SARatioParams(11),
		LevelName:   "11",
		Segment:     32 << 10,
		MaxInflight: 64,
	})
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

// TestFrontSALevelRoundTrip routes concurrent suffix-array-tier
// requests through the full stack — client → front → cluster → a
// 3-backend fleet all serving level 11 — and every response must
// re-inflate byte-exact.
func TestFrontSALevelRoundTrip(t *testing.T) {
	backs := []*testBackend{newSABackend(t), newSABackend(t), newSABackend(t)}
	specs := make([]BackendSpec, len(backs))
	for i, b := range backs {
		specs[i] = BackendSpec{TCP: b.tcp}
	}
	c := newTestCluster(t, specs, nil)
	f := NewFront(c, FrontConfig{})
	addr, err := f.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() }) //nolint:errcheck

	payloads := [][]byte{
		nil,
		[]byte("one byte shy of nothing"),
		workload.Wiki(96<<10, 11),
		bytes.Repeat([]byte("abcabcabc"), 4000),
	}
	lim := backs[0].current().Config().Decode

	const clients = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tc, err := client.DialMuxTimeout(addr, 0, 0)
			if err != nil {
				errs <- err
				return
			}
			defer tc.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			for _, p := range payloads {
				z, err := tc.Compress(ctx, p)
				if err != nil {
					errs <- err
					return
				}
				got, err := deflate.ZlibDecompressLimited(z, lim)
				if err != nil || !bytes.Equal(got, p) {
					errs <- fmt.Errorf("local re-inflate of %d-byte payload: %v", len(p), err)
					return
				}
				back, err := tc.Decompress(ctx, z)
				if err != nil || !bytes.Equal(back, p) {
					errs <- fmt.Errorf("front decompress of %d-byte payload: %v", len(p), err)
					return
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
