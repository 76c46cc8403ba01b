package obs

import (
	"bufio"
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"html"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Request-scoped tracing: every request entering the serving layer gets
// a RequestTrace at the front (HTTP or framed TCP), carries it through
// the engine via context, and finalizes it into a five-stage breakdown
// of where the request's wall time went:
//
//	slot_wait       arrival → engine slot acquired (backpressure gate)
//	queue_wait      segments in the engine's job queue until a worker takes them
//	compress        segment execution (LZSS match + Huffman encode; on
//	                decompress requests, the inflate call)
//	reorder_wait    in-engine wall time explained by neither queueing
//	                nor execution: completed segments waiting in the
//	                reorder window for an earlier index, plus driver
//	                overhead
//	response_write  writing response bytes to the client's socket
//
// Queue and compress are derived from the spans the segments record,
// one per segment (see Span). Segments run concurrently on engine
// workers, so their raw sums can exceed the request's wall clock on a
// multi-core box. Finalize clamps them to the in-engine wall interval
// — the stage breakdown answers "where did THIS request's latency come
// from", not "how much worker time did it consume" — which keeps the
// invariant every consumer can rely on: stages are non-negative and sum
// to at most the total latency.

// Stage indices of RequestTrace.StageNs, in request-timeline order.
const (
	StageSlotWait = iota
	StageQueueWait
	StageCompress
	StageReorderWait
	StageWrite
	NumStages
)

// StageNames are the canonical stage labels, indexed by the Stage*
// constants (the metric names in names.go and the /debug/requests
// columns both derive from these).
var StageNames = [NumStages]string{
	"slot_wait", "queue_wait", "compress", "reorder_wait", "response_write",
}

// traceBase is per-process entropy XOR-folded into every trace ID so
// IDs from different daemon processes don't collide; traceSeq makes
// them unique within the process.
var (
	traceBase uint64
	traceSeq  atomic.Uint64
)

func init() {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		traceBase = binary.LittleEndian.Uint64(b[:])
	} else {
		traceBase = uint64(time.Now().UnixNano())
	}
}

// TraceIDLen is the fixed length of a trace ID in bytes (16 lowercase
// hex characters); the framed TCP protocol carries it as a fixed-width
// field.
const TraceIDLen = 16

// NewTraceID returns a process-unique request trace ID: 16 hex
// characters, unique within the process by sequence and across
// processes by random base.
func NewTraceID() string {
	// The odd multiplier spreads consecutive sequence numbers across
	// the ID space so concurrent requests don't get near-identical IDs.
	return fmt.Sprintf("%016x", traceBase^(traceSeq.Add(1)*0x9e3779b97f4a7c15))
}

// RequestTrace is one request's trace record. The front creates it at
// arrival, engine workers record one Span per segment through AddSpan,
// and the front Finalizes it once the response is written. After
// Finalize the record is immutable; the Inspector's rings hold it by
// reference.
type RequestTrace struct {
	ID    string
	Front string // "http" or "tcp"; "lib" for a library caller's trace
	Op    string // "compress" or "decompress"
	// Level labels the compression tier serving the request (the
	// server's configured level name, e.g. "11" or "max"). Set by the
	// front at trace creation; informational only.
	Level string
	Start time.Time

	// InBytes is the request payload size, set by the front before the
	// trace is handed to the Inspector (the inspector reads it for
	// active rows, so it must not change after Begin).
	InBytes int64

	// Final values, written by Finalize (driver goroutine only).
	OutBytes int64
	Segments int64
	TotalNs  int64
	StageNs  [NumStages]int64
	Err      string

	// Accumulators, touched only by the request's own goroutine.
	slotNs     int64
	writeNs    int64
	compressNs int64
	done       atomic.Bool

	// spans are appended by engine workers under mu.
	mu    sync.Mutex
	spans []Span
}

// Span is one segment's stay on an engine worker: the segment index,
// the 0-based worker that ran it, and four instants — queued for the
// engine, picked up by the worker, matching done (the last attempt to
// finish matching; Started when none did), and done. It covers the
// whole stay, resilient retries and injected stalls included.
type Span struct {
	Seg, Worker                    int
	Queued, Started, Matched, Done time.Time
}

// NewRequestTrace starts a trace for one request arriving on front.
func NewRequestTrace(front, op string) *RequestTrace {
	return &RequestTrace{ID: NewTraceID(), Front: front, Op: op, Start: time.Now()}
}

// SlotAcquired stamps the end of the backpressure wait: everything
// between Start and now is the slot_wait stage.
func (rt *RequestTrace) SlotAcquired() {
	if rt == nil {
		return
	}
	rt.slotNs = time.Since(rt.Start).Nanoseconds()
}

// AddSpan records one segment's span; n is the run's segment count, so
// the first span sizes the record for the whole run. Safe from worker
// goroutines.
func (rt *RequestTrace) AddSpan(s Span, n int) {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	if rt.spans == nil {
		rt.spans = make([]Span, 0, n)
	}
	rt.spans = append(rt.spans, s)
	rt.mu.Unlock()
}

// AddCompress credits execution time the engine does not record: a
// decompress request's inflate call. Driver-goroutine only.
func (rt *RequestTrace) AddCompress(d time.Duration) {
	if rt == nil || d <= 0 {
		return
	}
	rt.compressNs += d.Nanoseconds()
}

// AddWrite credits time spent writing response bytes to the client.
// Driver-goroutine only.
func (rt *RequestTrace) AddWrite(d time.Duration) {
	if rt == nil || d <= 0 {
		return
	}
	rt.writeNs += d.Nanoseconds()
}

// SetErr records the request's failure; the empty string means success.
func (rt *RequestTrace) SetErr(err error) {
	if rt == nil || err == nil {
		return
	}
	rt.Err = err.Error()
}

// Finalize freezes the trace: engineWall is the wall duration the
// request spent inside the compression/decompression call (response
// writes included — the streaming sink writes from within it), and out
// is the response payload size. The spans' queue and run times are
// summed and clamped into the engine-wall interval so the five stages
// partition observed wall time and never sum past the total.
func (rt *RequestTrace) Finalize(engineWall time.Duration, out int64) {
	if rt == nil || rt.done.Swap(true) {
		return
	}
	rt.OutBytes = out
	rt.TotalNs = time.Since(rt.Start).Nanoseconds()
	queue, comp := int64(0), rt.compressNs
	rt.mu.Lock()
	rt.Segments = int64(len(rt.spans))
	for _, s := range rt.spans {
		queue += max(s.Started.Sub(s.Queued).Nanoseconds(), 0)
		comp += max(s.Done.Sub(s.Started).Nanoseconds(), 0)
	}
	rt.mu.Unlock()

	// The sink writes happen inside the engine call; carve them out so
	// the engine interval attributes only queue/compress/reorder time.
	engNs := engineWall.Nanoseconds() - rt.writeNs
	if engNs < 0 {
		engNs = 0
	}
	queue = min(queue, engNs)
	comp = min(comp, engNs-queue)
	rt.StageNs[StageSlotWait] = max(rt.slotNs, 0)
	rt.StageNs[StageQueueWait] = queue
	rt.StageNs[StageCompress] = comp
	rt.StageNs[StageReorderWait] = engNs - queue - comp
	rt.StageNs[StageWrite] = rt.writeNs
	// Monotonic-clock epsilon guard: the stages are measured with
	// separate clock reads, so their sum can nose past the total by
	// nanoseconds. Clamp the total up — consumers assert sum ≤ total.
	sum := int64(0)
	for _, ns := range rt.StageNs {
		sum += ns
	}
	if sum > rt.TotalNs {
		rt.TotalNs = sum
	}
}

// Finalized reports whether Finalize has run.
func (rt *RequestTrace) Finalized() bool { return rt != nil && rt.done.Load() }

// MarshalJSON renders a finalized trace for the /debug/requests
// inspector (and tests). Only called on immutable (finalized) traces.
func (rt *RequestTrace) MarshalJSON() ([]byte, error) {
	stages := make(map[string]int64, NumStages)
	for i, name := range StageNames {
		stages[name] = rt.StageNs[i]
	}
	return json.Marshal(struct {
		ID       string           `json:"id"`
		Front    string           `json:"front"`
		Op       string           `json:"op"`
		Level    string           `json:"level,omitempty"`
		Start    time.Time        `json:"start"`
		InBytes  int64            `json:"in_bytes"`
		OutBytes int64            `json:"out_bytes"`
		Segments int64            `json:"segments"`
		TotalNs  int64            `json:"total_ns"`
		StageNs  map[string]int64 `json:"stage_ns"`
		Err      string           `json:"err,omitempty"`
	}{rt.ID, rt.Front, rt.Op, rt.Level, rt.Start, rt.InBytes, rt.OutBytes,
		rt.Segments, rt.TotalNs, stages, rt.Err})
}

// WriteChromeTrace writes a finalized trace as Chrome trace-event JSON
// ("complete" events, microseconds from Start), the format
// chrome://tracing and https://ui.perfetto.dev load directly: on row 0,
// "split" from the request's start to its first segment's queueing and
// "assemble" from its last segment's end to the request's end; on row
// worker+1, one "match" and one "encode" span per segment, cut at the
// segment's Matched instant. A nil trace writes an empty document.
func (rt *RequestTrace) WriteChromeTrace(w io.Writer) error {
	if rt == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`)
		return err
	}
	rt.mu.Lock()
	spans := append([]Span(nil), rt.spans...)
	rt.mu.Unlock()
	bw := bufio.NewWriter(w)
	bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	sep := ""
	event := func(name string, tid int, from, to time.Time, args string) {
		fmt.Fprintf(bw, `%s{"name":%q,"cat":"pipeline","ph":"X","pid":1,"tid":%d,"ts":%d,"dur":%d%s}`,
			sep, name, tid, from.Sub(rt.Start).Microseconds(), to.Sub(from).Microseconds(), args)
		sep = ",\n"
	}
	if len(spans) > 0 {
		first, last := spans[0].Queued, spans[0].Done
		for _, s := range spans {
			if s.Queued.Before(first) {
				first = s.Queued
			}
			if s.Done.After(last) {
				last = s.Done
			}
		}
		event("split", 0, rt.Start, first, "")
		for _, s := range spans {
			args := fmt.Sprintf(`,"args":{"segment":%d}`, s.Seg)
			event("match", s.Worker+1, s.Started, s.Matched, args)
			event("encode", s.Worker+1, s.Matched, s.Done, args)
		}
		event("assemble", 0, last, rt.Start.Add(time.Duration(rt.TotalNs)), "")
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// reqTraceKey is the context key carrying a *RequestTrace through the
// serving path into the deflate segment workers.
type reqTraceKey struct{}

// ContextWithRequest returns ctx carrying rt; the parallel compressor
// picks it up to record one span per segment.
func ContextWithRequest(ctx context.Context, rt *RequestTrace) context.Context {
	if rt == nil {
		return ctx
	}
	return context.WithValue(ctx, reqTraceKey{}, rt)
}

// RequestFromContext returns the request trace carried by ctx, or nil.
// One map-free context lookup per request — never on a per-byte path.
func RequestFromContext(ctx context.Context) *RequestTrace {
	rt, _ := ctx.Value(reqTraceKey{}).(*RequestTrace)
	return rt
}

// Inspector is the live request inspector behind /debug/requests
// (x/net/trace-shaped, zero dependencies): the set of currently active
// requests plus two rings of finalized ones — the N most recent and the
// N slowest. All methods are safe for concurrent use; Begin/End take
// one short mutex hold per request.
type Inspector struct {
	mu        sync.Mutex
	active    map[string]*RequestTrace
	recent    []*RequestTrace // ring, recentNext is the next overwrite slot
	recentN   int
	recentNxt int
	slowest   []*RequestTrace // sorted descending by TotalNs, ≤ slowN
	slowN     int
	completed int64
}

// Default ring capacities.
const (
	defaultRecentN = 64
	defaultSlowN   = 32
)

// NewInspector returns an inspector with the default ring sizes
// (64 recent, 32 slowest).
func NewInspector() *Inspector { return NewInspectorSized(0, 0) }

// NewInspectorSized sizes the rings explicitly (≤ 0 selects defaults).
func NewInspectorSized(recentN, slowN int) *Inspector {
	if recentN <= 0 {
		recentN = defaultRecentN
	}
	if slowN <= 0 {
		slowN = defaultSlowN
	}
	return &Inspector{
		active:  make(map[string]*RequestTrace),
		recentN: recentN,
		slowN:   slowN,
	}
}

// Begin registers rt as active. No-op on a nil inspector.
func (in *Inspector) Begin(rt *RequestTrace) {
	if in == nil || rt == nil {
		return
	}
	in.mu.Lock()
	in.active[rt.ID] = rt
	in.mu.Unlock()
}

// End moves a finalized rt from the active set into the rings.
func (in *Inspector) End(rt *RequestTrace) {
	if in == nil || rt == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.active, rt.ID)
	in.completed++
	if len(in.recent) < in.recentN {
		in.recent = append(in.recent, rt)
	} else {
		in.recent[in.recentNxt] = rt
		in.recentNxt = (in.recentNxt + 1) % in.recentN
	}
	// Insert into the slowest ring (sorted descending) if it qualifies.
	if len(in.slowest) < in.slowN || rt.TotalNs > in.slowest[len(in.slowest)-1].TotalNs {
		i := sort.Search(len(in.slowest), func(i int) bool { return in.slowest[i].TotalNs < rt.TotalNs })
		in.slowest = append(in.slowest, nil)
		copy(in.slowest[i+1:], in.slowest[i:])
		in.slowest[i] = rt
		if len(in.slowest) > in.slowN {
			in.slowest = in.slowest[:in.slowN]
		}
	}
}

// activeEntry is the race-safe view of an in-flight request: only
// fields set before Begin (immutable while active) plus its age.
type activeEntry struct {
	ID      string    `json:"id"`
	Front   string    `json:"front"`
	Op      string    `json:"op"`
	Start   time.Time `json:"start"`
	InBytes int64     `json:"in_bytes"`
	AgeNs   int64     `json:"age_ns"`
}

// snapshot copies the inspector state out under the lock. Finalized
// traces are shared by reference (immutable); active ones are reduced
// to their immutable fields.
func (in *Inspector) snapshot() (active []activeEntry, recent, slowest []*RequestTrace, completed int64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	now := time.Now()
	active = make([]activeEntry, 0, len(in.active))
	for _, rt := range in.active {
		active = append(active, activeEntry{
			ID: rt.ID, Front: rt.Front, Op: rt.Op, Start: rt.Start,
			InBytes: rt.InBytes, AgeNs: now.Sub(rt.Start).Nanoseconds(),
		})
	}
	sort.Slice(active, func(i, j int) bool { return active[i].AgeNs > active[j].AgeNs })
	// Recent, newest first: walk the ring backwards from the last write.
	recent = make([]*RequestTrace, 0, len(in.recent))
	for i := 0; i < len(in.recent); i++ {
		idx := (in.recentNxt - 1 - i + 2*len(in.recent)) % len(in.recent)
		if len(in.recent) < in.recentN {
			// Ring not yet full: entries live at [0, len) in append
			// order, newest last.
			idx = len(in.recent) - 1 - i
		}
		recent = append(recent, in.recent[idx])
	}
	slowest = append([]*RequestTrace(nil), in.slowest...)
	return active, recent, slowest, in.completed
}

// Completed returns the lifetime count of finalized requests.
func (in *Inspector) Completed() int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.completed
}

// Slowest returns the slowest-requests ring, slowest first (test and
// tooling accessor; the traces are finalized and immutable).
func (in *Inspector) Slowest() []*RequestTrace {
	if in == nil {
		return nil
	}
	_, _, slowest, _ := in.snapshot()
	return slowest
}

// Lookup returns the finalized trace with the given ID from either
// ring, or nil.
func (in *Inspector) Lookup(id string) *RequestTrace {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, rt := range in.recent {
		if rt.ID == id {
			return rt
		}
	}
	for _, rt := range in.slowest {
		if rt.ID == id {
			return rt
		}
	}
	return nil
}

// inspectorPage is the JSON shape of /debug/requests?fmt=json.
type inspectorPage struct {
	Active    []activeEntry   `json:"active"`
	Recent    []*RequestTrace `json:"recent"`
	Slowest   []*RequestTrace `json:"slowest"`
	Completed int64           `json:"completed"`
}

// ServeHTTP renders the inspector: an HTML page by default, the same
// data as JSON with ?fmt=json.
func (in *Inspector) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	active, recent, slowest, completed := in.snapshot()
	if req.URL.Query().Get("fmt") == "json" {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		enc.Encode(inspectorPage{ //nolint:errcheck
			Active: active, Recent: recent, Slowest: slowest, Completed: completed,
		})
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, "<!DOCTYPE html><html><head><title>lzssd requests</title>"+
		"<style>body{font-family:monospace}table{border-collapse:collapse;margin:1em 0}"+
		"td,th{border:1px solid #999;padding:2px 8px;text-align:right}"+
		"td:first-child,th:first-child{text-align:left}</style></head><body>"+
		"<h1>request inspector</h1><p>%d active, %d completed</p>", len(active), completed)
	fmt.Fprint(w, "<h2>active</h2><table><tr><th>trace</th><th>front</th><th>op</th><th>in bytes</th><th>age</th></tr>")
	for _, a := range active {
		fmt.Fprintf(w, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%d</td><td>%s</td></tr>",
			html.EscapeString(a.ID), a.Front, a.Op, a.InBytes, time.Duration(a.AgeNs))
	}
	fmt.Fprint(w, "</table>")
	writeTraceTable(w, "slowest", slowest)
	writeTraceTable(w, "recent", recent)
	fmt.Fprint(w, "</body></html>\n")
}

func writeTraceTable(w http.ResponseWriter, title string, traces []*RequestTrace) {
	fmt.Fprintf(w, "<h2>%s</h2><table><tr><th>trace</th><th>front</th><th>op</th>"+
		"<th>in</th><th>out</th><th>segs</th><th>total</th>", title)
	for _, name := range StageNames {
		fmt.Fprintf(w, "<th>%s</th>", name)
	}
	fmt.Fprint(w, "<th>err</th></tr>")
	for _, rt := range traces {
		fmt.Fprintf(w, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%d</td><td>%d</td><td>%d</td><td>%s</td>",
			html.EscapeString(rt.ID), rt.Front, rt.Op, rt.InBytes, rt.OutBytes, rt.Segments,
			time.Duration(rt.TotalNs))
		for _, ns := range rt.StageNs {
			fmt.Fprintf(w, "<td>%s</td>", time.Duration(ns))
		}
		fmt.Fprintf(w, "<td>%s</td></tr>", html.EscapeString(rt.Err))
	}
	fmt.Fprint(w, "</table>")
}
