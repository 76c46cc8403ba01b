package server_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lzssfpga/internal/cache/dict"
	"lzssfpga/internal/faultinject"
	"lzssfpga/internal/obs"
	"lzssfpga/internal/server"
	"lzssfpga/internal/server/client"
	"lzssfpga/internal/workload"
)

// syncWriter is a concurrency-safe log sink for the slow-request log.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// checkTrace asserts the trace invariant every consumer relies on: all
// five stages non-negative and summing to at most the total.
func checkTrace(rt *obs.RequestTrace) error {
	if !rt.Finalized() {
		return fmt.Errorf("trace %s not finalized", rt.ID)
	}
	sum := int64(0)
	for i, ns := range rt.StageNs {
		if ns < 0 {
			return fmt.Errorf("trace %s stage %s negative: %d", rt.ID, obs.StageNames[i], ns)
		}
		sum += ns
	}
	if sum > rt.TotalNs {
		return fmt.Errorf("trace %s stage sum %d > total %d", rt.ID, sum, rt.TotalNs)
	}
	return nil
}

// TestServerE2ETracing is the observability acceptance run: concurrent
// HTTP and TCP clients each collect the trace ID their responses carry,
// and every ID must resolve in the live inspector to a finalized trace
// whose five stages are non-negative and sum to at most the total. The
// scrape must expose a non-zero latency p99, and a fault-stalled
// request must surface in the slowest ring attributed to the compress
// stage, with a slow-log line carrying its trace ID. Compress requests
// with and without a preset dictionary must file their engine work in
// the trace on both fronts: one segment per cut and non-zero queue and
// compress stages.
func TestServerE2ETracing(t *testing.T) {
	check := leakCheck(t)
	reg := obs.NewRegistry()
	server.SetObservability(reg)
	defer server.SetObservability(nil)
	insp := obs.NewInspectorSized(256, 16)
	server.SetInspector(insp)
	defer server.SetInspector(nil)

	dicts, err := dict.NewBuiltinRegistry()
	if err != nil {
		t.Fatal(err)
	}
	srv, httpAddr, tcpAddr := newTestServer(t, server.Config{Segment: 8 << 10, MaxInflight: 64, Dicts: dicts})
	payloads := [][]byte{workload.Wiki(24<<10, 3), []byte("trace me")}

	// Phase 1: concurrent clients on both fronts, collecting the trace
	// ID of every response (HTTP: X-Lzss-Trace-Id header; TCP: the
	// header trace field via LastTraceID).
	const clients = 12
	var wg sync.WaitGroup
	idc := make(chan string, clients*len(payloads)*2)
	errc := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				errc <- traceHTTPClient(httpAddr, payloads, idc)
			} else {
				errc <- traceTCPClient(tcpAddr, payloads, idc)
			}
		}(i)
	}
	wg.Wait()
	close(idc)
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}

	var ids []string
	for id := range idc {
		ids = append(ids, id)
	}
	if want := clients * len(payloads) * 2; len(ids) != want {
		t.Fatalf("collected %d trace IDs, want %d", len(ids), want)
	}
	seen := make(map[string]bool)
	for _, id := range ids {
		if len(id) != obs.TraceIDLen {
			t.Fatalf("trace ID %q has length %d, want %d", id, len(id), obs.TraceIDLen)
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q across requests", id)
		}
		seen[id] = true
		// The response goes out before the server files the finished
		// trace: wait for the record instead of racing it.
		var rt *obs.RequestTrace
		waitFor(t, fmt.Sprintf("trace ID %q (returned to a client) in the inspector", id), func() bool {
			rt = insp.Lookup(id)
			return rt != nil
		})
		if err := checkTrace(rt); err != nil {
			t.Fatal(err)
		}
	}

	// One 48 KiB compress per front, with and without a dictionary: six
	// 8 KiB segments each, all of them accounted in the trace.
	dictPayload := workload.Wiki(48<<10, 4)
	tc, err := client.DialTCP(tcpAddr, 0)
	if err != nil {
		t.Fatal(err)
	}
	tc.SetDeadline(time.Now().Add(60 * time.Second)) //nolint:errcheck
	for _, dictID := range []string{"", "wiki"} {
		for _, front := range []string{"http", "tcp"} {
			var id string
			if front == "http" {
				_, id, err = tracedPost(httpAddr, "/compress", dictID, dictPayload)
			} else {
				_, err = tc.CompressDict(dictPayload, dictID)
				id = tc.LastTraceID()
			}
			if err != nil {
				t.Fatalf("%s dict=%q: %v", front, dictID, err)
			}
			var rt *obs.RequestTrace
			waitFor(t, fmt.Sprintf("trace ID %q in the inspector", id), func() bool {
				rt = insp.Lookup(id)
				return rt != nil
			})
			if err := checkTrace(rt); err != nil {
				t.Fatal(err)
			}
			engine := rt.StageNs[obs.StageQueueWait] + rt.StageNs[obs.StageCompress]
			if rt.Segments != 6 || engine <= 0 {
				t.Fatalf("%s dict=%q: trace segments=%d queue_wait+compress=%s, want 6 and > 0",
					front, dictID, rt.Segments, time.Duration(engine))
			}
		}
	}
	tc.Close()

	// The quantile gauges must ride along in a plain scrape.
	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	p99 := promValue(t, prom.String(), "server_latency_p99")
	if p99 <= 0 {
		t.Fatalf("server_latency_p99 = %v after %d requests, want > 0", p99, len(ids))
	}
	if promValue(t, prom.String(), "server_requests_total") < float64(len(ids)) {
		t.Fatal("server_requests_total below the number of traced requests")
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: a resilient server with every segment attempt stalled by
	// fault injection. The stalled request must land in the slowest
	// ring, its latency attributed to the compress stage, and its trace
	// ID must appear in the slow-request log.
	inj := faultinject.New(faultinject.Spec{WorkerStall: 1, StallMS: 120, Seed: 7})
	slowLog := &syncWriter{}
	stalled, stalledAddr, _ := newTestServer(t, server.Config{
		Segment:     8 << 10,
		MaxInflight: 8,
		Resilient:   true,
		SegmentHook: inj.SegmentHook,
		SlowLog:     50 * time.Millisecond,
		Log:         slowLog,
	})
	resp, err := http.Post("http://"+stalledAddr+"/compress", "application/octet-stream",
		bytes.NewReader(payloads[0]))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stalled compress: %s", resp.Status)
	}
	slowID := resp.Header.Get(server.TraceIDHeader)
	if slowID == "" {
		t.Fatal("stalled response carries no trace ID header")
	}
	var slowRT *obs.RequestTrace
	for _, rt := range insp.Slowest() {
		if rt.ID == slowID {
			slowRT = rt
			break
		}
	}
	if slowRT == nil {
		t.Fatalf("stalled request %s not in the slowest ring", slowID)
	}
	if err := checkTrace(slowRT); err != nil {
		t.Fatal(err)
	}
	comp := slowRT.StageNs[obs.StageCompress]
	if comp < (60 * time.Millisecond).Nanoseconds() {
		t.Fatalf("stalled request compress stage = %s, want >= 60ms (injected 120ms stalls)",
			time.Duration(comp))
	}
	for i, ns := range slowRT.StageNs {
		if i != obs.StageCompress && ns > comp {
			t.Fatalf("stage %s (%s) exceeds compress (%s) on a compute-stalled request",
				obs.StageNames[i], time.Duration(ns), time.Duration(comp))
		}
	}
	if logged := slowLog.String(); !strings.Contains(logged, "trace="+slowID) ||
		!strings.Contains(logged, "level=slow") {
		t.Fatalf("slow log missing the stalled request:\n%s", logged)
	}

	if err := stalled.Close(); err != nil {
		t.Fatal(err)
	}
	check()
}

// traceHTTPClient drives compress + decompress over raw HTTP, pushing
// each response's X-Lzss-Trace-Id into ids.
func traceHTTPClient(addr string, payloads [][]byte, ids chan<- string) error {
	for _, p := range payloads {
		z, id, err := tracedPost(addr, "/compress", "", p)
		if err != nil {
			return err
		}
		ids <- id
		back, id, err := tracedPost(addr, "/decompress", "", z)
		if err != nil {
			return err
		}
		ids <- id
		if !bytes.Equal(back, p) {
			return fmt.Errorf("http trace client: round trip mismatch (%d bytes)", len(p))
		}
	}
	return nil
}

// tracedPost POSTs body to path, negotiating dictID when non-empty, and
// returns the response body and its trace ID.
func tracedPost(addr, path, dictID string, body []byte) (out []byte, traceID string, err error) {
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+path, bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if dictID != "" {
		req.Header.Set(server.DictHeader, dictID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, "", fmt.Errorf("POST %s: %w", path, err)
	}
	defer resp.Body.Close()
	out, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", fmt.Errorf("POST %s: reading response: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("POST %s: %s: %s", path, resp.Status, out)
	}
	traceID = resp.Header.Get(server.TraceIDHeader)
	if traceID == "" {
		return nil, "", fmt.Errorf("POST %s: response carries no %s header", path, server.TraceIDHeader)
	}
	return out, traceID, nil
}

// traceTCPClient drives compress + decompress over one framed
// connection, pushing each response's wire trace ID into ids.
func traceTCPClient(addr string, payloads [][]byte, ids chan<- string) error {
	tc, err := client.DialTCP(addr, 0)
	if err != nil {
		return fmt.Errorf("tcp trace client: dial: %w", err)
	}
	defer tc.Close()
	tc.SetDeadline(time.Now().Add(60 * time.Second)) //nolint:errcheck
	for _, p := range payloads {
		z, err := tc.Compress(p)
		if err != nil {
			return fmt.Errorf("tcp trace client: compress: %w", err)
		}
		if tc.LastTraceID() == "" {
			return fmt.Errorf("tcp trace client: compress response carries no trace ID")
		}
		ids <- tc.LastTraceID()
		back, err := tc.Decompress(z)
		if err != nil {
			return fmt.Errorf("tcp trace client: decompress: %w", err)
		}
		if tc.LastTraceID() == "" {
			return fmt.Errorf("tcp trace client: decompress response carries no trace ID")
		}
		ids <- tc.LastTraceID()
		if !bytes.Equal(back, p) {
			return fmt.Errorf("tcp trace client: round trip mismatch (%d bytes)", len(p))
		}
	}
	return nil
}

// promValue extracts a bare sample's value from Prometheus text output.
func promValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		val, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("parsing %s sample %q: %v", name, line, err)
		}
		return v
	}
	t.Fatalf("metric %s not in scrape:\n%s", name, text)
	return 0
}
