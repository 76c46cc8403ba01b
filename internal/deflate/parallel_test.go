package deflate

import (
	"bytes"
	"compress/zlib"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"lzssfpga/internal/engine"
	"lzssfpga/internal/lzss"
	"lzssfpga/internal/obs"
	"lzssfpga/internal/token"
	"lzssfpga/internal/workload"
)

func TestParallelCompressRoundTrip(t *testing.T) {
	data := workload.Wiki(2<<20, 70)
	p := lzss.HWSpeedParams()
	z, err := compressPar(data, p, ParallelOpts{Segment: 256 << 10, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Our decoder.
	out, err := ZlibDecompress(z)
	if err != nil || !bytes.Equal(out, data) {
		t.Fatalf("own decoder: %v", err)
	}
	// Stdlib.
	zr, err := zlib.NewReader(bytes.NewReader(z))
	if err != nil {
		t.Fatal(err)
	}
	sout, err := io.ReadAll(zr)
	if err != nil || !bytes.Equal(sout, data) {
		t.Fatalf("stdlib: %v", err)
	}
}

func TestParallelDeterministicAcrossWorkers(t *testing.T) {
	data := workload.CAN(1<<20, 71)
	p := lzss.HWSpeedParams()
	ref, err := compressPar(data, p, ParallelOpts{Segment: 128 << 10, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 16} {
		got, err := compressPar(data, p, ParallelOpts{Segment: 128 << 10, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("workers=%d: output differs from single-worker", workers)
		}
	}
}

func TestParallelEdgeSizes(t *testing.T) {
	p := lzss.HWSpeedParams()
	for _, n := range []int{0, 1, 100, 256 << 10, 256<<10 + 1, 300_001} {
		data := workload.Wiki(n, int64(n))
		z, err := compressPar(data, p, ParallelOpts{Segment: 256 << 10, Workers: 4})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		out, err := ZlibDecompress(z)
		if err != nil || !bytes.Equal(out, data) {
			t.Fatalf("n=%d: round trip failed: %v", n, err)
		}
	}
}

func TestParallelRatioCloseToSerial(t *testing.T) {
	// Independent segments lose cross-boundary matches; the damage must
	// stay small at 256 KiB segments.
	data := workload.Wiki(2<<20, 72)
	p := lzss.HWSpeedParams()
	par, err := compressPar(data, p, ParallelOpts{Segment: 256 << 10, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	cmds, _, err := lzss.Compress(data, p)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := ZlibCompress(cmds, data, p.Window)
	if err != nil {
		t.Fatal(err)
	}
	if float64(len(par)) > 1.05*float64(len(serial)) {
		t.Fatalf("parallel %d more than 5%% worse than serial %d", len(par), len(serial))
	}
}

func TestParallelDictRoundTrip(t *testing.T) {
	p := lzss.HWSpeedParams()
	for _, n := range []int{0, 1, 100, 256 << 10, 256<<10 + 1, 2 << 20} {
		data := workload.Wiki(n, int64(n)+3)
		z, err := compressPar(data, p, ParallelOpts{Segment: 256 << 10, Workers: 4, Carry: true})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Our inflater.
		out, err := ZlibDecompress(z)
		if err != nil || !bytes.Equal(out, data) {
			t.Fatalf("n=%d: own decoder: %v", n, err)
		}
		// Stdlib: carried-over dictionaries must stay inside the standard
		// 32 KiB inflate window, or any third-party decoder breaks.
		zr, err := zlib.NewReader(bytes.NewReader(z))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		sout, err := io.ReadAll(zr)
		if err != nil || !bytes.Equal(sout, data) {
			t.Fatalf("n=%d: stdlib: %v", n, err)
		}
	}
}

func TestParallelDictDeterministicAcrossWorkers(t *testing.T) {
	data := workload.CAN(1<<20, 75)
	p := lzss.HWSpeedParams()
	ref, err := compressPar(data, p, ParallelOpts{Segment: 128 << 10, Workers: 1, Carry: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 16} {
		got, err := compressPar(data, p, ParallelOpts{Segment: 128 << 10, Workers: workers, Carry: true})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("workers=%d: output differs from single-worker", workers)
		}
	}
}

func TestParallelDictImprovesRatio(t *testing.T) {
	// Carry-over exists to win back the matches segmenting loses; on a
	// self-similar corpus it must never produce a larger stream than the
	// independent-segment mode.
	data := workload.Wiki(2<<20, 76)
	p := lzss.HWSpeedParams()
	plain, err := compressPar(data, p, ParallelOpts{Segment: 128 << 10, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	dict, err := compressPar(data, p, ParallelOpts{Segment: 128 << 10, Workers: 4, Carry: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(dict) > len(plain) {
		t.Fatalf("dict mode %d bytes > plain %d", len(dict), len(plain))
	}
}

func TestParallelRejectsBadParams(t *testing.T) {
	if _, err := compressPar([]byte("x"), lzss.Params{Window: 3}, ParallelOpts{}); err == nil {
		t.Fatal("bad params accepted")
	}
}

func BenchmarkParallelCompress(b *testing.B) {
	data := workload.Wiki(4<<20, 73)
	p := lzss.HWSpeedParams()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compressPar(data, p, ParallelOpts{Segment: 256 << 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelCompressDict measures the dictionary carry-over mode
// (pigz-style window presetting across segment cuts).
func BenchmarkParallelCompressDict(b *testing.B) {
	data := workload.Wiki(4<<20, 73)
	p := lzss.HWSpeedParams()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compressPar(data, p, ParallelOpts{Segment: 256 << 10, Carry: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPooledSegWorkerDoesNotPinInput: a segment worker goes back to its
// pool holding no reference to the caller's input, on the plain, carry
// and resilient paths and with the suffix-array matcher, whose index
// also binds the input. One collection must free the input: sync.Pool
// moves its contents to the victim cache at the start of a collection,
// so a pooled worker still holding the input would keep it alive
// through that cycle.
func TestPooledSegWorkerDoesNotPinInput(t *testing.T) {
	hw := lzss.HWSpeedParams()
	for _, c := range []struct {
		name string
		p    lzss.Params
		o    ParallelOpts
	}{
		{"plain", hw, ParallelOpts{Segment: 16 << 10}},
		{"carry", hw, ParallelOpts{Segment: 16 << 10, Carry: true}},
		{"resilient", hw, ParallelOpts{Segment: 16 << 10, Resilient: true}},
		{"suffix-array", lzss.SARatioParams(lzss.LevelSAMin), ParallelOpts{Segment: 16 << 10}},
	} {
		t.Run(c.name, func(t *testing.T) {
			freed := make(chan struct{})
			func() {
				in := new([64 << 10]byte)
				copy(in[:], workload.Wiki(len(in), 5))
				runtime.SetFinalizer(in, func(*[64 << 10]byte) { close(freed) })
				if _, err := compressPar(in[:], c.p, c.o); err != nil {
					t.Fatal(err)
				}
			}()
			runtime.GC()
			select {
			case <-freed:
			case <-time.After(2 * time.Second):
				t.Fatal("the input outlived a collection: a pooled segment worker still references it")
			}
		})
	}
}

// TestParallelOptionMatrix crosses the three history modes (independent
// segments, carry-over, preset dictionary) with the two output modes
// (returned buffer, Sink) and the two job bodies (fast, Resilient with
// no faults): every cell must be byte-identical to the buffered fast
// call with the same history, and decode with the matching inflater.
// Half the cells run traced and must record one span per segment.
func TestParallelOptionMatrix(t *testing.T) {
	data := workload.Wiki(300<<10, 81)
	d := workload.Wiki(16<<10, 82)
	p := lzss.HWSpeedParams()
	for _, m := range []struct {
		name string
		o    ParallelOpts
	}{
		{"plain", ParallelOpts{}},
		{"carry", ParallelOpts{Carry: true}},
		{"dict", ParallelOpts{Dict: d}},
	} {
		m.o.Segment, m.o.Workers = 64<<10, 3
		want, err := compressPar(data, p, m.o)
		if err != nil {
			t.Fatal(err)
		}
		for _, sink := range []bool{false, true} {
			for _, resilient := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/sink=%t/resilient=%t", m.name, sink, resilient), func(t *testing.T) {
					o := m.o
					o.Resilient = resilient
					var buf bytes.Buffer
					if sink {
						o.Sink = &buf
					}
					ctx := context.Background()
					var rt *obs.RequestTrace
					if sink != resilient {
						rt = obs.NewRequestTrace("test", "compress")
						ctx = obs.ContextWithRequest(ctx, rt)
					}
					start := time.Now()
					z, rep, err := ParallelCompress(ctx, data, p, o)
					if err != nil {
						t.Fatal(err)
					}
					if sink {
						if z != nil {
							t.Fatalf("sink run also returned %d bytes", len(z))
						}
						z = buf.Bytes()
					}
					if !bytes.Equal(z, want) {
						t.Fatal("output differs from the buffered fast call")
					}
					if rep != (ResilienceReport{Segments: 5}) {
						t.Fatalf("report = %+v, want 5 segments and no recovery", rep)
					}
					if rt != nil {
						rt.Finalize(time.Since(start), int64(len(z)))
						checkSpans(t, rt, rep.Segments)
					}
					var back []byte
					if o.Dict != nil {
						back, err = ZlibDecompressDict(z, o.Dict)
					} else {
						back, err = ZlibDecompress(z)
					}
					if err != nil || !bytes.Equal(back, data) {
						t.Fatalf("round trip: %v", err)
					}
				})
			}
		}
	}
}

// checkSpans requires a finalized trace of one parallel run to hold one
// span per segment: each segment index once, on a worker row inside the
// engine's width, with start ≤ first queueing ≤ started < matched ≤
// done ≤ last done, as the rendered document shows them (whole
// microseconds from the trace's start; matching a segment of tens of
// KiB takes well over a microsecond).
func checkSpans(t *testing.T, rt *obs.RequestTrace, segments int) {
	t.Helper()
	if rt.Segments != int64(segments) {
		t.Fatalf("trace holds %d spans for %d segments", rt.Segments, segments)
	}
	var buf bytes.Buffer
	if err := rt.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Tid  int    `json:"tid"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
			Args struct {
				Segment int `json:"segment"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	// Rendered order: split, one match and encode pair per span, assemble.
	ev := doc.TraceEvents
	if len(ev) != 2+2*segments || ev[0].Name != "split" || ev[len(ev)-1].Name != "assemble" {
		t.Fatalf("trace renders %d events for %d segments:\n%s", len(ev), segments, buf.String())
	}
	firstQueued, lastDone := ev[0].Dur, ev[len(ev)-1].Ts
	if firstQueued < 0 || lastDone < firstQueued {
		t.Fatalf("first queueing at %d µs, last done at %d µs", firstQueued, lastDone)
	}
	width := defaultEngine().Workers()
	seen := make([]bool, segments)
	for i := 1; i+1 < len(ev); i += 2 {
		m, e := ev[i], ev[i+1]
		seg := m.Args.Segment
		if m.Name != "match" || e.Name != "encode" || e.Tid != m.Tid || e.Args.Segment != seg {
			t.Fatalf("events %d and %d are not one span's match and encode: %+v %+v", i, i+1, m, e)
		}
		if seg < 0 || seg >= segments || seen[seg] {
			t.Fatalf("segment %d is out of range or recorded twice", seg)
		}
		seen[seg] = true
		if m.Tid < 1 || m.Tid > width {
			t.Fatalf("segment %d on row %d, want a worker row in [1, %d]", seg, m.Tid, width)
		}
		if m.Ts < firstQueued || m.Dur <= 0 || e.Ts < m.Ts || e.Dur < 0 || e.Ts+e.Dur > lastDone {
			t.Fatalf("segment %d: match %d+%d µs, encode %d+%d µs out of order (first queued %d, last done %d)",
				seg, m.Ts, m.Dur, e.Ts, e.Dur, firstQueued, lastDone)
		}
	}
}

// A preset-dictionary run on the resilient path recovers panicking
// attempts like any other: the FDICT stream still round-trips.
func TestParallelDictResilientRecoversPanics(t *testing.T) {
	data := workload.JSONish(100<<10, 83)
	d := workload.JSONish(8<<10, 83)
	hook := func(ctx context.Context, seg, attempt int) error {
		if attempt == 0 {
			panic(fmt.Sprintf("injected panic in segment %d", seg))
		}
		return nil
	}
	z, rep, err := ParallelCompress(context.Background(), data, lzss.HWSpeedParams(),
		ParallelOpts{Segment: 16 << 10, Dict: d, Resilient: true, SegmentHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PanicsRecovered == 0 || rep.Degraded != 0 {
		t.Fatalf("report = %+v, want recovered panics and no degradation", rep)
	}
	back, err := ZlibDecompressDict(z, d)
	if err != nil || !bytes.Equal(back, data) {
		t.Fatalf("dict round trip after recovered panics: %v", err)
	}
}

// cancelAfter is a Sink that cancels its context once it has received
// n writes.
type cancelAfter struct {
	n      int
	cancel context.CancelFunc
}

func (w *cancelAfter) Write(b []byte) (int, error) {
	if w.n--; w.n == 0 {
		w.cancel()
	}
	return len(b), nil
}

// Cancelling the context on the sink path — before the call, or after
// the header and first segment are out — fails the run with the
// context's error and skips the segments not yet started.
func TestParallelSinkContextCancel(t *testing.T) {
	data := workload.Wiki(256<<10, 84)
	for _, writes := range []int{0, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		if writes == 0 {
			cancel()
		}
		sink := &cancelAfter{n: writes, cancel: cancel}
		z, rep, err := ParallelCompress(ctx, data, lzss.HWSpeedParams(),
			ParallelOpts{Segment: 16 << 10, Workers: 1, Sink: sink})
		cancel()
		if !errors.Is(err, context.Canceled) || z != nil {
			t.Fatalf("cancel after %d writes: err = %v, %d bytes returned", writes, err, len(z))
		}
		if rep.Segments != 16 {
			t.Fatalf("cancel after %d writes: segments = %d", writes, rep.Segments)
		}
	}
}

// TestSegmentCommandBufferAllocBound holds a fresh segment worker, the
// state of every cold process and of every pool refill, to one command
// buffer per segment: compressing a 256 KiB wiki or CAN segment may
// allocate at most 2.5x the final command bytes, arena buffer and block
// scratch included. Grown from empty by append, the buffer allocated
// 5-6x.
func TestSegmentCommandBufferAllocBound(t *testing.T) {
	p := lzss.HWSpeedParams()
	for _, c := range []struct {
		name string
		gen  workload.Generator
	}{{"wiki", workload.Wiki}, {"can", workload.CAN}} {
		data := c.gen(256<<10, 1)
		m, err := lzss.NewMatcher(nil, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		w := &segWorker{p: p, m: m}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		body, err := w.compressSegment(data, 0, true, segHint(len(data)))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		engine.PutBuf(body)
		cmdBytes := uint64(len(w.cmds)) * uint64(unsafe.Sizeof(token.Command{}))
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d commands (%d B), allocated %d B (%.2fx)", c.name, len(w.cmds), cmdBytes, alloc, float64(alloc)/float64(cmdBytes))
		if 2*alloc > 5*cmdBytes {
			t.Errorf("%s: allocated %d B, over 2.5x the %d B of final commands", c.name, alloc, cmdBytes)
		}
	}
}
