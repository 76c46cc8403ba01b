package deflate

import (
	"bytes"
	"compress/zlib"
	"context"
	"errors"
	"fmt"
	"io"
	"testing"

	"lzssfpga/internal/lzss"
	"lzssfpga/internal/obs"
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

func TestParallelAdaptiveSegmentRoundTrip(t *testing.T) {
	// SegmentAdaptive gives up byte-determinism (the sizer may cut
	// differently run to run) but never correctness: every run must
	// still decode byte-exact, with both the plain and carry paths.
	data := workload.Wiki(3<<20, 72)
	p := lzss.HWSpeedParams()
	for _, carry := range []bool{false, true} {
		for run := 0; run < 3; run++ {
			z, err := compressPar(data, p, ParallelOpts{Segment: SegmentAdaptive, Carry: carry})
			if err != nil {
				t.Fatalf("carry=%v run=%d: %v", carry, run, err)
			}
			out, err := ZlibDecompress(z)
			if err != nil || !bytes.Equal(out, data) {
				t.Fatalf("carry=%v run=%d: round trip: %v", carry, run, err)
			}
		}
	}
	if got := adaptiveSizer.Value(); got < 64<<10 || got > 2<<20 {
		t.Fatalf("adaptive sizer left its bounds: %d", got)
	}
}

// TestParallelOptionMatrix crosses the three history modes (independent
// segments, carry-over, preset dictionary) with the two output modes
// (returned buffer, Sink) and the two job bodies (fast, Resilient with
// no faults): every cell must be byte-identical to the buffered fast
// call with the same history, and decode with the matching inflater.
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
					if sink != resilient {
						o.Tracer = obs.NewTracer()
					}
					z, rep, err := ParallelCompress(context.Background(), data, p, o)
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
					if o.Tracer != nil && o.Tracer.Len() < 2+2*rep.Segments {
						t.Fatalf("tracer recorded %d spans for %d segments", o.Tracer.Len(), rep.Segments)
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
