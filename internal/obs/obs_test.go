package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", []int64{1, 2})
	var rt *RequestTrace
	// None of these may panic, and all reads are zero.
	c.Add(5)
	c.Inc()
	g.Set(3.5)
	h.Observe(1)
	h.MergeBucket(0, 2, 2)
	rt.AddSpan(Span{}, 1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics must read zero")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := rt.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != `{"traceEvents":[]}` {
		t.Fatalf("nil trace rendered %q, want an empty document", buf.String())
	}
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a_total")
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Fatalf("counter = %d, want 4", c.Value())
	}
	if r.Counter("a_total") != c {
		t.Fatal("second lookup must return the same counter")
	}
	g := r.Gauge("g")
	g.Set(2.25)
	if g.Value() != 2.25 {
		t.Fatalf("gauge = %v", g.Value())
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []int64{3, 8, 20})
	for _, v := range []int64{1, 3, 4, 8, 9, 100} {
		h.Observe(v)
	}
	if h.Count() != 6 || h.Sum() != 125 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	want := []int64{2, 2, 1, 1} // le3, le8, le20, +Inf
	got := h.Buckets()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", got, want)
		}
	}
	h.MergeBucket(1, 2, 10) // two more observations in (3,8]
	if h.Count() != 8 || h.Sum() != 135 || h.Buckets()[1] != 4 {
		t.Fatalf("after merge: count=%d sum=%d buckets=%v", h.Count(), h.Sum(), h.Buckets())
	}
	// Same name returns the same histogram.
	if r.Histogram("h", []int64{1}) != h {
		t.Fatal("re-registration must return the existing histogram")
	}
}

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total").Add(7)
	r.Gauge("ratio").Set(1.5)
	h := r.Histogram("lat_us", []int64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE x_total counter\nx_total 7\n",
		"# TYPE ratio gauge\nratio 1.5\n",
		"# TYPE lat_us histogram\n",
		`lat_us_bucket{le="10"} 1`,
		`lat_us_bucket{le="100"} 2`,
		`lat_us_bucket{le="+Inf"} 3`,
		"lat_us_sum 5055",
		"lat_us_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestExpvarJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total").Add(7)
	r.Gauge("ratio").Set(1.5)
	h := r.Histogram("lat_us", []int64{10, 100})
	h.Observe(50)
	var buf bytes.Buffer
	if err := r.WriteExpvar(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("expvar output is not valid JSON: %v\n%s", err, buf.String())
	}
	if m["x_total"].(float64) != 7 || m["ratio"].(float64) != 1.5 {
		t.Fatalf("values: %v", m)
	}
	hist := m["lat_us"].(map[string]any)
	if hist["count"].(float64) != 1 || hist["sum"].(float64) != 50 {
		t.Fatalf("histogram json: %v", hist)
	}
}

func TestSnapshotMatchesPrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Add(41)
	h := r.Histogram("h", []int64{2, 4})
	h.Observe(1)
	h.Observe(3)
	h.Observe(9)
	snap := r.Snapshot()
	if snap["c_total"] != 41 || snap["h_count"] != 3 || snap["h_sum"] != 13 {
		t.Fatalf("snapshot: %v", snap)
	}
	if snap["h_bucket_le_2"] != 1 || snap["h_bucket_le_4"] != 2 || snap["h_bucket_le_inf"] != 3 {
		t.Fatalf("snapshot buckets: %v", snap)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_total").Inc()
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()
	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "up_total 1") {
		t.Fatalf("/metrics: %d %q", code, body)
	}
	if code, body := get("/debug/vars"); code != 200 || !strings.Contains(body, `"up_total": 1`) {
		t.Fatalf("/debug/vars: %d %q", code, body)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: %d", code)
	}
	if code, _ := get("/"); code != 200 {
		t.Fatalf("index: %d", code)
	}
	if code, _ := get("/nonexistent"); code != 404 {
		t.Fatalf("unknown path: %d", code)
	}
}

func TestServe(t *testing.T) {
	r := NewRegistry()
	srv, addr, err := Serve(r, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// TestWriteChromeTrace renders a hand-built finalized trace: split and
// assemble on row 0 bracket the spans, each span becomes a match and an
// encode event on row worker+1 cut at Matched, and ts/dur are whole
// microseconds from the trace's start.
func TestWriteChromeTrace(t *testing.T) {
	t0 := time.Now()
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	rt := &RequestTrace{Start: t0, TotalNs: int64(time.Millisecond)}
	rt.AddSpan(Span{Seg: 0, Worker: 0, Queued: at(100), Started: at(150), Matched: at(400), Done: at(500)}, 3)
	rt.AddSpan(Span{Seg: 1, Worker: 1, Queued: at(120), Started: at(200), Matched: at(300), Done: at(700)}, 3)
	rt.AddSpan(Span{Seg: 2, Worker: 0, Queued: at(130), Started: at(500), Matched: at(500), Done: at(600)}, 3)
	var buf bytes.Buffer
	if err := rt.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	type event struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		Tid  int    `json:"tid"`
		Ts   int64  `json:"ts"`
		Dur  int64  `json:"dur"`
		Args struct {
			Segment int `json:"segment"`
		} `json:"args"`
	}
	var doc struct {
		TraceEvents []event `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	type row struct {
		name              string
		tid, seg, ts, dur int
	}
	want := []row{
		{"split", 0, 0, 0, 100},
		{"match", 1, 0, 150, 250}, {"encode", 1, 0, 400, 100},
		{"match", 2, 1, 200, 100}, {"encode", 2, 1, 300, 400},
		{"match", 1, 2, 500, 0}, {"encode", 1, 2, 500, 100},
		{"assemble", 0, 0, 700, 300},
	}
	if len(doc.TraceEvents) != len(want) {
		t.Fatalf("events = %d, want %d:\n%s", len(doc.TraceEvents), len(want), buf.String())
	}
	for i, w := range want {
		e := doc.TraceEvents[i]
		got := row{e.Name, e.Tid, e.Args.Segment, int(e.Ts), int(e.Dur)}
		if got != w || e.Ph != "X" {
			t.Errorf("event %d = %+v (ph %q), want %+v (ph X)", i, got, e.Ph, w)
		}
	}
}
