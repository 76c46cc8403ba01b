package server_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"lzssfpga/internal/deflate"
	"lzssfpga/internal/lzss"
	"lzssfpga/internal/obs"
	"lzssfpga/internal/server"
	"lzssfpga/internal/server/client"
	"lzssfpga/internal/workload"
)

// TestServerE2ESALevelRoundTrip serves the suffix-array high-ratio tier
// (-level 11) on both fronts: every payload must round-trip byte-exact
// through HTTP and framed TCP, and the trace inspector must label each
// request with the serving level.
func TestServerE2ESALevelRoundTrip(t *testing.T) {
	check := leakCheck(t)
	insp := obs.NewInspectorSized(64, 8)
	server.SetInspector(insp)
	defer server.SetInspector(nil)

	cfg := server.Config{
		Params:    lzss.SARatioParams(11),
		LevelName: "11",
		Segment:   64 << 10,
	}
	srv, httpAddr, tcpAddr := newTestServer(t, cfg)

	payloads := [][]byte{
		nil,
		[]byte("sa tier"),
		workload.Wiki(200<<10, 9), // multi-segment: SA matcher per segment
		bytes.Repeat([]byte{0}, 48<<10),
	}
	lim := deflate.DecodeLimits{MaxOutputBytes: 1 << 22, MaxBlocks: 1 << 16}

	assertLevel := func(id string) {
		t.Helper()
		// The response goes out before the server files the finished
		// trace: wait for the record instead of racing it.
		var rt *obs.RequestTrace
		waitFor(t, fmt.Sprintf("trace %q in the inspector", id), func() bool {
			rt = insp.Lookup(id)
			return rt != nil
		})
		if rt.Level != "11" {
			t.Fatalf("trace %q carries level %q, want %q", id, rt.Level, "11")
		}
	}

	// HTTP front: compress, verify byte-exact via the hardened inflater,
	// then decompress back through the server itself.
	for _, p := range payloads {
		z, id, err := tracedPost(httpAddr, "/compress", "", p)
		if err != nil {
			t.Fatal(err)
		}
		assertLevel(id)
		if err := roundTripCheck(z, p, lim); err != nil {
			t.Fatal(err)
		}
		back, id, err := tracedPost(httpAddr, "/decompress", "", z)
		if err != nil {
			t.Fatal(err)
		}
		assertLevel(id)
		if !bytes.Equal(back, p) {
			t.Fatalf("http: server decompress mismatch (%d bytes)", len(p))
		}
	}

	// Framed-TCP front over one connection.
	tc, err := client.DialMuxTimeout(tcpAddr, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, p := range payloads {
		z, id, err := tc.DoDict(ctx, server.OpCompress, p, "")
		if err != nil {
			t.Fatal(err)
		}
		assertLevel(id)
		if err := roundTripCheck(z, p, lim); err != nil {
			t.Fatal(err)
		}
		back, id, err := tc.DoDict(ctx, server.OpDecompress, z, "")
		if err != nil {
			t.Fatal(err)
		}
		assertLevel(id)
		if !bytes.Equal(back, p) {
			t.Fatalf("tcp: round trip mismatch (%d bytes)", len(p))
		}
	}
	tc.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	check()
}
