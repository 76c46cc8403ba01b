package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer, as a Chrome trace
// event (chrome://tracing and Perfetto load the file). cat is the
// layer; args.req ties the spans of one request together.
type span struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs since the run started
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is the untraced run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records one span of layer from start to end on row tid.
func (t *tracer) add(layer, name string, tid int, start, end time.Time, args map[string]any) {
	if t == nil {
		return
	}
	s := span{Name: name, Cat: layer, Ph: "X", Pid: 1, Tid: tid, Args: args,
		Ts: float64(start.Sub(t.t0)) / 1e3, Dur: float64(end.Sub(start)) / 1e3}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	b, err := json.Marshal(map[string]any{"traceEvents": t.spans, "displayTimeUnit": "ms"})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// requests records every request of the phases as a span of the layer
// that served it, after a loadgen span for the time it waited to be
// sent; one row per sender.
func (t *tracer) requests(layer string, runs []phaseRun) {
	if t == nil {
		return
	}
	var id int
	for _, r := range runs {
		for _, sm := range r.samples {
			id++
			name := "compress"
			if sm.op.decompress {
				name = "decompress"
			}
			args := map[string]any{"req": id, "phase": r.name, "raw_bytes": sm.raw}
			t.add("loadgen", "wait", 2+sm.w, r.t0.Add(sm.due), r.t0.Add(sm.start), args)
			t.add(layer, name, 2+sm.w, r.t0.Add(sm.start), r.t0.Add(sm.end), args)
		}
	}
}

// timed runs f and records it as a span of layer on row tid.
func (t *tracer) timed(layer, name string, tid int, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(layer, name, tid, start, end, nil)
	return end.Sub(start)
}
