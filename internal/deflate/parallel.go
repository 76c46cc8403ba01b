package deflate

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"lzssfpga/internal/bitio"
	"lzssfpga/internal/engine"
	"lzssfpga/internal/lzss"
	"lzssfpga/internal/obs"
	"lzssfpga/internal/token"
)

// segWorker is the reusable per-goroutine state of the parallel
// compressor: matcher hash tables, the command buffer and the encoded
// output buffer all survive from segment to segment (and, through the
// pool, from call to call), so the steady-state hot path allocates only
// the per-segment result slice.
type segWorker struct {
	p    lzss.Params
	m    *lzss.Matcher
	cmds []token.Command
	out  sliceBuffer
	bw   *bitio.Writer
	plan dynamicPlan
	// Per-run observability context, set by the worker loop before
	// each segment and cleared before pooling: the run's tracer (nil
	// when tracing is off), the worker's trace row, and the segment
	// index being compressed.
	tr  *obs.Tracer
	tid int
	seg int
	// shard is the engine shard whose arena stack serves this worker's
	// output buffers (-1 = global tier), set by the job body from the
	// executing worker id.
	shard int
}

// sliceBuffer is the minimal io.Writer the bit writer needs: an
// appendable byte slice that can be reset without freeing its backing
// array (bytes.Buffer would do, but shifts bytes on Read and keeps
// internal state the pipeline never uses).
type sliceBuffer struct{ b []byte }

func (s *sliceBuffer) Write(p []byte) (int, error) {
	s.b = append(s.b, p...)
	return len(p), nil
}

var segWorkerPool = sync.Pool{New: func() any { return new(segWorker) }}

// getSegWorker fetches a pooled worker, rebuilding the matcher when the
// pooled one was configured differently (table sizes or policy).
func getSegWorker(p lzss.Params) (*segWorker, error) {
	k := deflateObs.Load()
	w := segWorkerPool.Get().(*segWorker)
	if k != nil {
		k.poolGets.Inc()
	}
	if w.m == nil || !w.p.SameConfig(p) {
		if k != nil {
			k.poolRebuilds.Inc()
		}
		m, err := lzss.NewMatcher(nil, p, nil)
		if err != nil {
			segWorkerPool.Put(w)
			return nil, err
		}
		w.m = m
		w.p = p
	}
	if w.bw == nil {
		w.bw = bitio.NewWriter(&w.out)
	}
	w.shard = -1
	return w, nil
}

// putSegWorker drops references into the caller's data before pooling,
// so a cached worker never pins a user buffer.
func putSegWorker(w *segWorker) {
	w.m.Reset(nil)
	w.cmds = w.cmds[:0]
	w.out.b = w.out.b[:0]
	w.tr = nil
	segWorkerPool.Put(w)
}

// ParallelOpts configures ParallelCompress. The zero value is usable:
// default segment size and worker count, independent segments, a plain
// zlib stream returned in one buffer, the fast path.
type ParallelOpts struct {
	// Segment is the cut size in bytes (0 selects 256 KiB, a good
	// ratio/parallelism balance; SegmentAdaptive lets the engine's sizer
	// choose, trading determinism for utilization). Workers caps the
	// call's in-flight segments on the shared engine; 0 means GOMAXPROCS
	// on the fast path and the engine's full width when Resilient.
	Segment int
	Workers int
	// Carry enables dictionary carry-over (pigz's default mode): each
	// segment's matcher is preset with the trailing window of its
	// predecessor, so matches reach back across the cut and the ratio
	// loss of segmenting all but disappears. The output is still one
	// standard zlib stream, because an inflater's history window spans
	// block boundaries.
	Carry bool
	// Dict, when non-nil, is a preset dictionary: the output is an RFC
	// 1950 FDICT stream (DICTID = the dictionary's Adler-32), the
	// dictionary's trailing Window-1 bytes are laid down as history in
	// front of the data — the layout lzss.CompressWithDict uses — and
	// Carry is implied, so segment 0's matches reach into the preset
	// window and later segments reach their predecessors. Any zlib
	// implementation holding the same dictionary decodes the result.
	Dict []byte
	// Sink, when non-nil, receives the stream in index order as segments
	// complete, so the first compressed bytes reach the consumer while
	// later segments are still compressing; the returned slice is then
	// nil. On any error the bytes written so far are an incomplete
	// stream the consumer must discard.
	Sink io.Writer
	// Tracer observes the pipeline stages: one "split" span for
	// segmentation planning, per-segment "match" and "encode" spans on
	// the owning worker's trace row, and one "assemble" span for stream
	// assembly. May be nil.
	Tracer *obs.Tracer
	// Resilient hardens the run for a hostile runtime: every segment
	// attempt runs under recover() (a panicking worker is scrubbed and
	// the segment retried), each attempt can carry a deadline, each
	// compressed segment body is self-checked by independent
	// re-inflation, and a segment that exhausts its retry budget
	// degrades to raw stored blocks — worse ratio, guaranteed correct —
	// rather than failing the stream. Carried segments reference history
	// outside themselves, so their self-check is skipped; end-to-end
	// verification still covers them. The fields below configure it.
	Resilient bool
	// MaxSegmentRetries is how many times a failed segment attempt is
	// retried before the segment degrades to stored blocks (0 selects 2).
	MaxSegmentRetries int
	// SegmentTimeout bounds each attempt; an attempt that outlives it is
	// treated as a stalled worker and retried (0 = no per-attempt bound).
	SegmentTimeout time.Duration
	// SegmentHook runs at the start of every attempt with the attempt's
	// context, the segment index and the attempt number. It is the fault
	// seam: internal/faultinject provides hooks that panic or stall. A
	// panic in the hook (or anywhere in the attempt) is recovered and
	// counted; a returned error fails the attempt.
	SegmentHook func(ctx context.Context, seg, attempt int) error
}

// ParallelCompress compresses data into a standard zlib stream on the
// shared persistent engine, pigz-style: the input is cut into segments,
// each segment is LZSS-matched and Huffman-coded as its own Deflate
// block(s), and the blocks stream out in order as they complete. The
// output is deterministic — identical for any worker count, on the fast
// and the resilient path alike — and decodable by any inflater; without
// Carry or Dict the price of the parallelism is that matches cannot
// cross segment boundaries.
//
// ctx cancellation stops the run: segments not yet started are skipped,
// the ones in flight are drained and discarded, and the call returns the
// context's error. A request trace carried on ctx (see
// obs.ContextWithRequest) is credited with the run's segment count and
// per-segment queue and compress time. The report counts segments on
// every path and the recovery work on the resilient one; only
// cancellation, a Sink write error or invalid parameters make the
// resilient path fail.
//
// This is the one driver behind every parallel mode: it plans the cut,
// submits pooled segment jobs with the worker budget as the in-flight
// cap, and emits completed bodies in index order. The job bodies stay
// separate (runFast, runResilient), so recover, self-check and
// stored-block degradation stay off the fast path.
func ParallelCompress(ctx context.Context, data []byte, p lzss.Params, o ParallelOpts) ([]byte, ResilienceReport, error) {
	var rep ResilienceReport
	if err := p.Validate(); err != nil {
		return nil, rep, err
	}
	h, err := ZlibHeader(p.Window)
	if err != nil {
		return nil, rep, err
	}
	hdr := h[:]
	// data[:base] is preset-dictionary history: matched against but never
	// emitted, outside the segment plan and the Adler trailer.
	base := 0
	if o.Dict != nil {
		o.Carry = true
		tail := o.Dict
		if reach := p.Window - 1; len(tail) > reach {
			tail = tail[len(tail)-reach:]
		}
		// One contiguous buffer: [dictionary tail | data]. The copy is the
		// price of adjacency (CompressTail needs the history physically in
		// front of the segment); it is linear and dwarfed by matching.
		data = append(append(make([]byte, 0, len(tail)+len(data)), tail...), data...)
		base = len(tail)
		dh, _ := zlibDictHeader(p.Window, AdlerChecksum(o.Dict)) // window validated above
		hdr = dh[:]
	}
	workers := o.Workers
	if workers <= 0 && !o.Resilient {
		// Fast-path segments are pure CPU: in-flight work beyond the
		// machine's parallelism buys nothing and interleaves extra pooled
		// matchers (hash tables) through the caches. The resilient path
		// keeps the engine's full width instead — its segments block on
		// injected stalls and deadlines, so overlap there is the point.
		workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxSegmentRetries <= 0 {
		o.MaxSegmentRetries = 2
	}
	k := deflateObs.Load()
	splitStart := time.Now()
	plan := planSegments(len(data)-base, o.Segment)
	rep.Segments = plan.nSeg
	run := &parallelRun{ctx: ctx, data: data, p: p, o: o, rt: obs.RequestFromContext(ctx), adaptive: plan.adaptive}

	// write lands stream bytes in the returned buffer (preallocated from
	// the running ratio estimate) or the sink. After the first failure it
	// drops everything: the stream is already unusable.
	var out []byte
	if o.Sink == nil {
		out = make([]byte, 0, estimateOut(len(data)-base)+len(hdr))
	}
	var written int64
	var firstErr error
	write := func(b []byte) {
		if firstErr != nil {
			return
		}
		if o.Sink == nil {
			out = append(out, b...)
		} else if _, err := o.Sink.Write(b); err != nil {
			firstErr = err
			return
		}
		written += int64(len(b))
	}
	write(hdr)

	eng := defaultEngine()
	jobs := getJobs(plan.nSeg)
	defer putJobs(jobs)
	if o.Tracer != nil {
		o.Tracer.Span("split", 0, splitStart, time.Since(splitStart),
			fmt.Sprintf(`{"segments":%d,"workers":%d,"resilient":%t}`, plan.nSeg, eng.Shards(), o.Resilient))
	}
	err = eng.SubmitAndStream(ctx, plan.nSeg, workers,
		func(i int, r *engine.Request) engine.Job {
			j := &(*jobs)[i]
			lo := base + i*plan.segment
			*j = pjob{
				req: r, run: run, idx: i,
				lo: lo, hi: min(lo+plan.segment, len(data)), dictLo: dictLow(lo, o.Carry, p),
				final: i == plan.nSeg-1,
			}
			if k != nil || run.rt != nil {
				j.submitAt = time.Now()
			}
			return j
		}, func(b *engine.Buf, err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if b != nil {
				write(b.B)
				engine.PutBuf(b)
			}
		})
	rep.Retries = int(run.retries.Load())
	rep.PanicsRecovered = int(run.panics.Load())
	rep.Degraded = int(run.degraded.Load())
	if firstErr != nil {
		err = firstErr
	}
	if err != nil {
		return nil, rep, fmt.Errorf("deflate: parallel compress: %w", err)
	}
	// Finalize: Adler-32 trailer onto the streamed body bytes (the
	// preset-history prefix is matched against but never summed).
	assembleStart := time.Now()
	sum := AdlerChecksum(data[base:])
	write([]byte{byte(sum >> 24), byte(sum >> 16), byte(sum >> 8), byte(sum)})
	if firstErr != nil {
		return nil, rep, fmt.Errorf("deflate: parallel compress: %w", firstErr)
	}
	if o.Tracer != nil {
		o.Tracer.Span("assemble", 0, assembleStart, time.Since(assembleStart), fmt.Sprintf(`{"bytes":%d}`, written))
	}
	ratio := float64(len(data)-base) / float64(written)
	if k != nil {
		k.parallelRuns.Inc()
		k.lastRatio.Set(ratio)
	}
	observeRatio(ratio)
	return out, rep, nil
}

// compressSegment produces byte-aligned Deflate blocks for one segment,
// buf[origin:]; buf[:origin] is preset history the matcher may reach
// into (empty without dictionary carry-over). Alignment matters:
// segments are encoded independently and then concatenated, so each
// must end on a byte boundary. A zero-length stored block provides the
// alignment padding (and carries the BFINAL flag on the last segment) —
// the classic Z_FULL_FLUSH framing. The body is encoded directly into
// an arena buffer sized from hint and returned without copying; the
// caller recycles it (engine.PutBuf) after assembly. All other scratch
// state lives in the worker.
func (w *segWorker) compressSegment(buf []byte, origin int, final bool, hint int) (*engine.Buf, error) {
	matchStart := time.Now()
	if origin > 0 {
		w.cmds = lzss.CompressTail(w.cmds[:0], w.m, buf, origin)
	} else {
		w.cmds = lzss.CompressReuse(w.cmds[:0], w.m, buf)
	}
	if w.tr != nil {
		w.tr.Span("match", w.tid, matchStart, time.Since(matchStart),
			fmt.Sprintf(`{"segment":%d,"bytes":%d,"commands":%d}`, w.seg, len(buf)-origin, len(w.cmds)))
	}
	encodeStart := time.Now()
	cmds := w.cmds
	plan := &w.plan
	plan.plan(cmds)
	dynBits := plan.headerBits() + plan.bodyBits(cmds)
	fixBits := 7
	for _, c := range cmds {
		fixBits += CommandBits(c)
	}
	// Encode straight into an arena buffer: the filled buffer IS the
	// returned body, so the old copy-to-fresh-slice step is gone. On an
	// error path the buffer goes straight back to the arena.
	ab := engine.GetBufShard(hint, w.shard)
	w.out.b = ab.B
	fail := func(err error) (*engine.Buf, error) {
		w.out.b = nil
		engine.PutBuf(ab)
		return nil, err
	}
	bw := w.bw
	bw.Reset(&w.out)
	if dynBits < fixBits {
		if err := plan.emit(bw, cmds, false); err != nil {
			return fail(err)
		}
	} else {
		e := NewEncoder(bw)
		e.BeginBlock(false)
		if err := e.EncodeAll(cmds); err != nil {
			return fail(err)
		}
		e.EndBlock()
	}
	// Alignment / final marker: an empty stored block.
	bw.WriteBool(final)
	bw.WriteBits(0b00, 2)
	bw.AlignByte()
	bw.WriteBits(0, 16)
	bw.WriteBits(0xFFFF, 16)
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	ab.B = w.out.b
	w.out.b = nil
	if w.tr != nil {
		w.tr.Span("encode", w.tid, encodeStart, time.Since(encodeStart),
			fmt.Sprintf(`{"segment":%d,"bytes":%d}`, w.seg, len(ab.B)))
	}
	return ab, nil
}
