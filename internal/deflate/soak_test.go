package deflate

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"lzssfpga/internal/checksum"
	"lzssfpga/internal/engine"
	"lzssfpga/internal/faultinject"
	"lzssfpga/internal/lzss"
	"lzssfpga/internal/workload"
)

// serialReference builds the expected stream for one (data, params,
// segment, carry) tuple without the engine: the same segment encoder,
// driven sequentially on this goroutine. The engine path must be
// byte-exact against it for any concurrency.
func serialReference(t *testing.T, data []byte, p lzss.Params, segment int, carry bool) []byte {
	t.Helper()
	plan := planSegments(len(data), segment)
	hdr, err := ZlibHeader(p.Window)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), hdr[:]...)
	for i := 0; i < plan.nSeg; i++ {
		lo := i * plan.segment
		hi := lo + plan.segment
		if hi > len(data) {
			hi = len(data)
		}
		dl := dictLow(lo, carry, p)
		sw, err := getSegWorker(p)
		if err != nil {
			t.Fatal(err)
		}
		body, err := sw.compressSegment(data[dl:hi], lo-dl, i == plan.nSeg-1, segHint(hi-lo))
		putSegWorker(sw)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, body.B...)
		engine.PutBuf(body)
	}
	sum := checksum.Adler32Sum(data)
	return append(out, byte(sum>>24), byte(sum>>16), byte(sum>>8), byte(sum))
}

// TestEngineSoak hammers the shared engine from many goroutines with
// mixed sizes, parameters, segment cuts and modes, requiring every
// result to be byte-exact against an engine-free serial reference —
// and the engine to leave no goroutines behind once closed.
func TestEngineSoak(t *testing.T) {
	ResetDefaultEngine()
	runtime.GC()
	baseline := runtime.NumGoroutine()

	type soakCase struct {
		data    []byte
		p       lzss.Params
		segment int
		carry   bool
		want    []byte
	}
	sizes := []int{0, 1, 7 << 10, 100 << 10, 777_777, 2 << 20}
	params := []lzss.Params{lzss.HWSpeedParams(), lzss.LevelParams(lzss.LevelDefault, 32<<10, 15)}
	segments := []int{16 << 10, 64 << 10, 256 << 10}
	var cases []soakCase
	for si, n := range sizes {
		p := params[si%len(params)]
		seg := segments[si%len(segments)]
		data := workload.Wiki(n, int64(1000+n))
		for _, carry := range []bool{false, true} {
			cases = append(cases, soakCase{
				data: data, p: p, segment: seg, carry: carry,
				want: serialReference(t, data, p, seg, carry),
			})
		}
	}

	const goroutines = 8
	iters := 6
	if testing.Short() {
		iters = 2
	}
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				c := cases[(g+it)%len(cases)]
				workers := 1 + (g+it)%5
				got, err := compressPar(c.data, c.p, ParallelOpts{Segment: c.segment, Workers: workers, Carry: c.carry})
				if err != nil {
					errc <- fmt.Errorf("g%d it%d: %v", g, it, err)
					return
				}
				if !bytes.Equal(got, c.want) {
					errc <- fmt.Errorf("g%d it%d: engine output diverged from serial reference (n=%d seg=%d carry=%v workers=%d)",
						g, it, len(c.data), c.segment, c.carry, workers)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// The engine must shut down without leaking its workers.
	ResetDefaultEngine()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak after engine close: %d > baseline %d\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestReorderUnderWorkerStalls is the streaming reorder buffer's
// adversarial ordering test: injected worker stalls (with no attempt
// deadline, so a stall is pure delay) force segments to complete far
// out of order, and the assembled stream must still be byte-identical
// to the undelayed fast path.
func TestReorderUnderWorkerStalls(t *testing.T) {
	data := workload.Wiki(512<<10, 99)
	p := lzss.HWSpeedParams()
	want, err := compressPar(data, p, ParallelOpts{Segment: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		inj := faultinject.New(faultinject.Spec{WorkerStall: 0.4, StallMS: 20, Seed: seed})
		got, rep, err := ParallelCompress(context.Background(), data, p, ParallelOpts{
			Segment: 16 << 10, Resilient: true, SegmentHook: inj.SegmentHook,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Degraded != 0 || rep.Retries != 0 {
			t.Fatalf("seed %d: pure delays must not trigger recovery: %+v", seed, rep)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: stalled segments were reassembled out of order", seed)
		}
		if s := inj.Stats(); s.StallsInjected == 0 {
			t.Fatalf("seed %d: no stalls injected — test exercised nothing", seed)
		}
	}
}
