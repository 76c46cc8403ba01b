package deflate

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lzssfpga/internal/engine"
	"lzssfpga/internal/lzss"
	"lzssfpga/internal/obs"
)

// This file is the deflate side of the persistent compression engine:
// the shared default engine.Engine every ParallelCompress call runs
// on, and the pooled per-segment job type with its fast and resilient
// bodies. Goroutine creation and channel allocation are paid once per
// process here, and the request path recycles everything else (jobs,
// reorder state, segment bodies) through pools and the engine arena.

// SegmentAdaptive, passed as ParallelOpts.Segment, lets the engine's
// online sizer choose the cut: segment size then tracks observed
// per-segment service time (see engine.Sizer). Adaptive cuts trade the fixed-segment determinism
// guarantee — two runs over the same data may segment differently —
// for steadier worker utilization; the default and any explicit
// segment size remain byte-deterministic.
const SegmentAdaptive = -1

// adaptiveSizer steps the adaptive cut between 64 KiB and 2 MiB, aiming
// for segments that keep a worker busy for single-digit milliseconds —
// long enough to amortize scheduling, short enough to stream through
// the reorder buffer without latency spikes.
var adaptiveSizer = engine.NewSizer(64<<10, 2<<20, 256<<10, 2*time.Millisecond, 12*time.Millisecond)

// defaultEng is the process-wide engine, built on first use. The floor
// of four shards keeps blocking-heavy work (fault-injected stalls, the
// resilient retry loop) overlapped even on a single-core box; CPU-bound
// segments just time-slice.
var (
	engMu      sync.Mutex
	defaultEng *engine.Engine
)

func defaultEngine() *engine.Engine {
	engMu.Lock()
	defer engMu.Unlock()
	if defaultEng == nil {
		shards := runtime.GOMAXPROCS(0)
		if shards < 4 {
			shards = 4
		}
		defaultEng = engine.New(engine.Config{Shards: shards})
	}
	return defaultEng
}

// ResetDefaultEngine closes the shared engine (draining queued jobs)
// and lets the next parallel call rebuild it sized to the then-current
// GOMAXPROCS. It exists for benchmarks that sweep GOMAXPROCS and for
// leak-checking tests; it must not race in-flight ParallelCompress
// calls.
func ResetDefaultEngine() {
	engMu.Lock()
	e := defaultEng
	defaultEng = nil
	engMu.Unlock()
	if e != nil {
		e.Close()
	}
}

// ratioEWMA is the damped input/output ratio of recent parallel runs
// (float64 bits; zero = no run yet). It seeds the single up-front
// output allocation — the old path append-grew the assembly buffer,
// the new one sizes it from this estimate and almost never regrows.
var ratioEWMA atomic.Uint64

func estimatedRatio() float64 {
	if b := ratioEWMA.Load(); b != 0 {
		return math.Float64frombits(b)
	}
	return 2.0 // a conservative prior for compressible data
}

func observeRatio(r float64) {
	if r <= 0 {
		return
	}
	if old := ratioEWMA.Load(); old != 0 {
		r = math.Float64frombits(old) + (r-math.Float64frombits(old))/8
	}
	ratioEWMA.Store(math.Float64bits(r))
}

// estimateOut sizes the assembled-output allocation for n input bytes:
// the EWMA-predicted compressed size plus 20% headroom and the
// header/trailer framing. Underestimates merely fall back to append
// growth; overestimates waste only virtual address space.
func estimateOut(n int) int {
	return int(float64(n)/estimatedRatio()*1.2) + zlibHeaderLen + adlerLen + 64
}

const (
	zlibHeaderLen = 2
	adlerLen      = 4
)

// parallelRun is the state one ParallelCompress call shares with its
// segment jobs: the (dictionary-prefixed) input, the resolved options,
// the request trace carried in on the driver's context (nil when the
// caller isn't tracing) and the resilient path's fault ledger.
type parallelRun struct {
	ctx                       context.Context
	data                      []byte
	p                         lzss.Params
	o                         ParallelOpts
	rt                        *obs.RequestTrace
	adaptive                  bool
	retries, panics, degraded atomic.Int64
}

// pjob is one segment job; jobs live in a pooled slice per request and
// hold no memory of their own.
type pjob struct {
	req    *engine.Request
	run    *parallelRun
	idx    int
	lo, hi int
	dictLo int
	final  bool
	// submitAt is stamped just before Submit when a registry is enabled
	// or the request is traced; Run turns it into the
	// deflate_queue_wait_us histogram and the trace's queue_wait stage.
	submitAt time.Time
}

var jobSlicePool = sync.Pool{New: func() any { return new([]pjob) }}

func getJobs(n int) *[]pjob {
	js := jobSlicePool.Get().(*[]pjob)
	if cap(*js) < n {
		*js = make([]pjob, n)
	}
	*js = (*js)[:n]
	return js
}

// putJobs zeroes the slice before pooling so cached jobs never pin a
// caller's input buffer.
func putJobs(js *[]pjob) {
	for i := range *js {
		(*js)[i] = pjob{}
	}
	jobSlicePool.Put(js)
}

// Run executes the segment on an engine worker. Complete is the last
// touch of the request and the job: the submitter may recycle both the
// moment it receives the completion.
func (j *pjob) Run(wid int) {
	r := j.run
	k := deflateObs.Load()
	start := time.Now()
	if !j.submitAt.IsZero() {
		if k != nil {
			k.queueWaitUs.Observe(start.Sub(j.submitAt).Microseconds())
		}
		r.rt.AddQueueWait(start.Sub(j.submitAt))
	}
	var body *engine.Buf
	var err error
	if r.o.Resilient {
		body, err = j.runResilient(wid)
	} else {
		body, err = j.runFast(wid)
	}
	if k != nil {
		k.segments.Inc()
		k.inBytes.Add(int64(j.hi - j.lo))
		if body != nil {
			k.outBytes.Add(int64(len(body.B)))
		}
		k.workerBusyNs.Add(time.Since(start).Nanoseconds())
	}
	// The compress stage of the request trace is the segment's whole
	// residence on the worker — including resilient retries and injected
	// stalls, which is exactly what a latency investigation needs to see.
	r.rt.AddCompress(time.Since(start))
	if r.adaptive && err == nil {
		adaptiveSizer.Observe(j.hi-j.lo, time.Since(start))
	}
	j.req.Complete(j.idx, body, err)
}

// runFast compresses the segment once, with no recovery around it; a
// cancelled run skips the work.
func (j *pjob) runFast(wid int) (*engine.Buf, error) {
	r := j.run
	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	sw, err := getSegWorker(r.p)
	if err != nil {
		return nil, err
	}
	defer putSegWorker(sw)
	sw.tr, sw.tid, sw.seg, sw.shard = r.o.Tracer, wid+1, j.idx, wid
	return sw.compressSegment(r.data[j.dictLo:j.hi], j.lo-j.dictLo, j.final, segHint(j.hi-j.lo))
}

// runResilient is the hardened body: guarded attempt loop, then
// degradation to stored blocks when the budget is gone. It fails only
// when the run's context is cancelled.
func (j *pjob) runResilient(wid int) (*engine.Buf, error) {
	r := j.run
	var body *engine.Buf
	if sw, swErr := getSegWorker(r.p); swErr == nil {
		sw.tr, sw.tid, sw.shard = r.o.Tracer, wid+1, wid
		body = r.compressSegmentResilient(sw, r.data[j.dictLo:j.hi], j.lo-j.dictLo, j.idx, j.final)
		putSegWorker(sw)
	}
	if body == nil {
		if err := r.ctx.Err(); err != nil {
			return nil, err
		}
		// Retry budget gone (or no worker at all): stored blocks cannot
		// fail.
		body = storedSegment(r.data[j.lo:j.hi], j.final)
		r.degraded.Add(1)
		if k := deflateObs.Load(); k != nil {
			k.segmentsDegraded.Inc()
		}
	}
	return body, nil
}

// segHint predicts a segment's compressed size for the arena.
func segHint(segLen int) int {
	return int(float64(segLen)/estimatedRatio()*1.25) + 64
}

// segPlan is the driver's segmentation arithmetic.
type segPlan struct {
	segment, nSeg int
	adaptive      bool
}

func planSegments(dataLen, segment int) segPlan {
	adaptive := segment == SegmentAdaptive
	if adaptive {
		segment = adaptiveSizer.Value()
	}
	if segment <= 0 {
		segment = 256 << 10
	}
	nSeg := (dataLen + segment - 1) / segment
	if nSeg == 0 {
		nSeg = 1
	}
	return segPlan{segment: segment, nSeg: nSeg, adaptive: adaptive}
}

// dictLow is where segment i's matcher history starts: the segment
// start, or up to Window-1 bytes earlier under dictionary carry-over.
func dictLow(lo int, carry bool, p lzss.Params) int {
	if !carry {
		return lo
	}
	if reach := p.Window - 1; lo > reach {
		return lo - reach
	}
	return 0
}
