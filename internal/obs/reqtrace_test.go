package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", []int64{10, 20, 40})
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
	// 10 observations uniform in (0,10]: p50 rank 6 interpolates inside
	// the first bucket.
	for i := 0; i < 10; i++ {
		h.Observe(5)
	}
	p50 := h.Quantile(0.5)
	if p50 <= 0 || p50 > 10 {
		t.Fatalf("p50 = %v, want within (0,10]", p50)
	}
	// Push the p99 rank into the second bucket.
	for i := 0; i < 10; i++ {
		h.Observe(15)
	}
	p99 := h.Quantile(0.99)
	if p99 <= 10 || p99 > 20 {
		t.Fatalf("p99 = %v, want within (10,20]", p99)
	}
	// Tail beyond the last bound clamps to the last finite bound.
	for i := 0; i < 1000; i++ {
		h.Observe(1 << 20)
	}
	if got := h.Quantile(0.99); got != 40 {
		t.Fatalf("+Inf-bucket quantile = %v, want clamp to 40", got)
	}
	// Degenerate q values are zero, not panics.
	if h.Quantile(0) != 0 || h.Quantile(1) != 0 || h.Quantile(-3) != 0 {
		t.Fatal("out-of-range q must return 0")
	}
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Fatal("nil histogram quantile must be 0")
	}
}

func TestTraceIDs(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if len(id) != TraceIDLen {
			t.Fatalf("trace ID %q has length %d, want %d", id, len(id), TraceIDLen)
		}
		if strings.Trim(id, "0123456789abcdef") != "" {
			t.Fatalf("trace ID %q is not lowercase hex", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
	}
}

// TestRequestTraceNilSafety: every method must be a no-op on nil — the
// untraced path threads nil through engine and deflate.
func TestRequestTraceNilSafety(t *testing.T) {
	var rt *RequestTrace
	rt.SlotAcquired()
	rt.AddSpan(Span{}, 1)
	rt.AddCompress(time.Millisecond)
	rt.AddWrite(time.Millisecond)
	rt.SetErr(fmt.Errorf("x"))
	rt.Finalize(time.Second, 1)
	if rt.Finalized() {
		t.Fatal("nil trace cannot be finalized")
	}
	if err := rt.WriteChromeTrace(io.Discard); err != nil {
		t.Fatal(err)
	}
	if RequestFromContext(context.Background()) != nil {
		t.Fatal("empty context must carry no trace")
	}
	if ContextWithRequest(context.Background(), nil) != context.Background() {
		t.Fatal("nil trace must not wrap the context")
	}
}

// TestFinalizeClampsStages pins the invariant every consumer relies on:
// stages are non-negative and sum to at most the total, even when the
// spans' queue and run times (recorded concurrently across workers)
// exceed the request's wall clock.
func TestFinalizeClampsStages(t *testing.T) {
	rt := NewRequestTrace("http", "compress")
	rt.InBytes = 1 << 20
	rt.slotNs = int64(2 * time.Millisecond)
	// Eight segments ran concurrently: 8×5ms of compress and 8×1ms of
	// queueing against an engine wall of only 10ms.
	for i := 0; i < 8; i++ {
		q := rt.Start.Add(time.Duration(i) * time.Microsecond)
		rt.AddSpan(Span{Seg: i, Worker: i % 4, Queued: q, Started: q.Add(time.Millisecond),
			Matched: q.Add(4 * time.Millisecond), Done: q.Add(6 * time.Millisecond)}, 8)
	}
	rt.AddWrite(3 * time.Millisecond)
	rt.Finalize(13*time.Millisecond, 1<<19) // 10ms engine + 3ms writes
	if !rt.Finalized() {
		t.Fatal("Finalize must mark the trace done")
	}
	var sum int64
	for i, ns := range rt.StageNs {
		if ns < 0 {
			t.Fatalf("stage %s is negative: %d", StageNames[i], ns)
		}
		sum += ns
	}
	if sum > rt.TotalNs {
		t.Fatalf("stage sum %d exceeds total %d", sum, rt.TotalNs)
	}
	engNs := int64(10 * time.Millisecond)
	if got := rt.StageNs[StageQueueWait] + rt.StageNs[StageCompress] + rt.StageNs[StageReorderWait]; got != engNs {
		t.Fatalf("engine-side stages sum to %d, want clamped engine wall %d", got, engNs)
	}
	// Queue is clamped first (8ms fits), compress gets the remaining 2ms.
	if q, c := rt.StageNs[StageQueueWait], rt.StageNs[StageCompress]; q != int64(8*time.Millisecond) || c != int64(2*time.Millisecond) {
		t.Fatalf("queue_wait = %d, compress = %d, want 8ms and 2ms", q, c)
	}
	if rt.StageNs[StageWrite] != int64(3*time.Millisecond) {
		t.Fatalf("write stage = %d", rt.StageNs[StageWrite])
	}
	if rt.Segments != 8 {
		t.Fatalf("segments = %d, want 8", rt.Segments)
	}
	// Finalize is idempotent.
	before := rt.StageNs
	rt.Finalize(time.Hour, 999)
	if rt.StageNs != before || rt.OutBytes != 1<<19 {
		t.Fatal("second Finalize must be a no-op")
	}
}

func TestContextCarriesTrace(t *testing.T) {
	rt := NewRequestTrace("tcp", "compress")
	ctx := ContextWithRequest(context.Background(), rt)
	if got := RequestFromContext(ctx); got != rt {
		t.Fatalf("RequestFromContext = %p, want %p", got, rt)
	}
}

func finalizedTrace(total time.Duration) *RequestTrace {
	rt := NewRequestTrace("http", "compress")
	rt.Start = time.Now().Add(-total)
	rt.AddCompress(total / 2)
	rt.Finalize(total/2, 100)
	return rt
}

func TestInspectorRings(t *testing.T) {
	in := NewInspectorSized(4, 2)
	// Active set: Begin without End.
	active := NewRequestTrace("http", "compress")
	active.InBytes = 42
	in.Begin(active)

	var all []*RequestTrace
	for i := 1; i <= 6; i++ {
		rt := finalizedTrace(time.Duration(i) * time.Millisecond)
		in.Begin(rt)
		in.End(rt)
		all = append(all, rt)
	}
	if got := in.Completed(); got != 6 {
		t.Fatalf("completed = %d, want 6", got)
	}
	slowest := in.Slowest()
	if len(slowest) != 2 {
		t.Fatalf("slowest ring holds %d, want 2", len(slowest))
	}
	if slowest[0] != all[5] || slowest[1] != all[4] {
		t.Fatal("slowest ring must hold the two largest totals, descending")
	}
	// Lookup finds ring members; the still-active request is not in the
	// rings.
	if in.Lookup(all[5].ID) != all[5] {
		t.Fatal("Lookup must find a slowest-ring member")
	}
	if in.Lookup(active.ID) != nil {
		t.Fatal("active requests are not in the completed rings")
	}

	// JSON endpoint: active row present, recent newest-first and capped
	// at the ring size.
	rec := httptest.NewRecorder()
	in.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests?fmt=json", nil))
	var page struct {
		Active []struct {
			ID      string `json:"id"`
			InBytes int64  `json:"in_bytes"`
			AgeNs   int64  `json:"age_ns"`
		} `json:"active"`
		Recent []struct {
			ID      string           `json:"id"`
			TotalNs int64            `json:"total_ns"`
			StageNs map[string]int64 `json:"stage_ns"`
		} `json:"recent"`
		Completed int64 `json:"completed"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatalf("inspector JSON: %v\n%s", err, rec.Body.String())
	}
	if len(page.Active) != 1 || page.Active[0].ID != active.ID || page.Active[0].InBytes != 42 {
		t.Fatalf("active rows = %+v", page.Active)
	}
	if page.Active[0].AgeNs <= 0 {
		t.Fatal("active age must be positive")
	}
	if len(page.Recent) != 4 {
		t.Fatalf("recent ring holds %d, want 4", len(page.Recent))
	}
	if page.Recent[0].ID != all[5].ID || page.Recent[3].ID != all[2].ID {
		t.Fatal("recent must be newest-first, oldest evicted")
	}
	if len(page.Recent[0].StageNs) != NumStages {
		t.Fatalf("stage map has %d entries, want %d", len(page.Recent[0].StageNs), NumStages)
	}
	if page.Completed != 6 {
		t.Fatalf("completed = %d", page.Completed)
	}

	// HTML rendering smoke check.
	rec = httptest.NewRecorder()
	in.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests", nil))
	if body := rec.Body.String(); !strings.Contains(body, active.ID) || !strings.Contains(body, "slowest") {
		t.Fatal("HTML inspector page is missing expected content")
	}

	// Nil inspector: every accessor is a no-op.
	var nilIn *Inspector
	nilIn.Begin(active)
	nilIn.End(active)
	if nilIn.Completed() != 0 || nilIn.Slowest() != nil || nilIn.Lookup("x") != nil {
		t.Fatal("nil inspector must read empty")
	}
}

func TestOnScrapeHooks(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("derived")
	n := 0
	r.OnScrape("h", func() { n++; g.Set(float64(n)) })
	snap := r.Snapshot()
	if snap["derived"] != 1 {
		t.Fatalf("hook did not run before Snapshot: %v", snap["derived"])
	}
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "derived 2") {
		t.Fatalf("hook did not run before WritePrometheus:\n%s", buf.String())
	}
	// Same-name registration replaces; nil removes.
	r.OnScrape("h", func() { g.Set(-1) })
	r.Snapshot()
	if g.Value() != -1 {
		t.Fatal("second registration under the same name must replace the first")
	}
	r.OnScrape("h", nil)
	r.Snapshot()
	if g.Value() != -1 {
		t.Fatal("removed hook must not run")
	}
	// Nil registry: no panic.
	var nilR *Registry
	nilR.OnScrape("x", func() {})
}

func TestRegisterRuntime(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	// Churn some garbage so heap numbers are nonzero and a GC pause is
	// plausible (not asserted — pause counts are environmental).
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 1<<16))
	}
	runtime.GC()
	_ = sink
	snap := r.Snapshot()
	if snap[RuntimeGoroutines] < 1 {
		t.Fatalf("%s = %v, want >= 1", RuntimeGoroutines, snap[RuntimeGoroutines])
	}
	if snap[RuntimeHeapBytes] <= 0 {
		t.Fatalf("%s = %v, want > 0", RuntimeHeapBytes, snap[RuntimeHeapBytes])
	}
	if _, ok := snap[RuntimeGCPauseNs+"_count"]; !ok {
		t.Fatalf("%s histogram missing from snapshot", RuntimeGCPauseNs)
	}
	// Concurrent scrapes must not race the sampler.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				r.Snapshot()
			}
		}()
	}
	wg.Wait()
	// Nil registry: no-op.
	RegisterRuntime(nil)
}

// TestServeShutdown pins the obs.Serve teardown contract: Close with
// scrapes in flight neither panics nor leaks the serve goroutine, and
// a second Close is a no-op.
func TestServeShutdown(t *testing.T) {
	before := runtime.NumGoroutine()
	r := NewRegistry()
	r.Counter("x_total").Inc()
	insp := NewInspector()
	srv, addr, err := ServeWith(r, insp, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// A dedicated transport so idle keep-alive connections don't count
	// against the goroutine baseline.
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}
	// Hammer every endpoint while the server dies under the scrapers.
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			paths := []string{"/metrics", "/debug/vars", "/debug/requests", "/"}
			for j := 0; j < 50; j++ {
				resp, err := client.Get("http://" + addr + paths[(i+j)%len(paths)])
				if err != nil {
					return // server gone — expected mid-shutdown
				}
				resp.Body.Close()
			}
		}(i)
	}
	close(start)
	time.Sleep(5 * time.Millisecond) // let scrapes get in flight
	srv.Close()                      // must not panic with scrapes in flight
	srv.Close()                      // repeated Close must be a no-op, not a panic
	wg.Wait()
	tr.CloseIdleConnections()
	// The serve goroutine must be gone; allow the runtime a moment to
	// retire handler goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before serve, %d after close", before, runtime.NumGoroutine())
}
