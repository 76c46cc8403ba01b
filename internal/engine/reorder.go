package engine

import (
	"context"
	"sync"
)

// Request is the per-call reorder window: workers complete segments in
// whatever order the scheduler finishes them, and the request streams
// them back to its owner in index order while later segments are still
// compressing — there is no full-batch barrier anywhere.
//
// Mechanics: completions arrive on a channel sized for the whole
// request (workers never block on it). Segment indices are dense and
// known before the first submit, so the owner keeps one slot per index:
// it stores each completion in its slot, then emits and clears slots
// from the cursor for as long as they are filled. Requests recycle
// through a pool; the channel and slot storage survive recycling, and
// because emitting clears a slot, a pooled request holds no buffer and
// no completion from its previous use.
type Request struct {
	sent    int // jobs handed to the engine
	emitted int // the cursor: segments [0, emitted) have been emitted
	held    int // completions stored past the cursor
	done    chan segResult
	slots   []segResult
}

// segResult is one completed segment: its index, its arena-backed body
// (nil on error) and the error, if any. full marks a stored slot.
type segResult struct {
	idx  int
	body *Buf
	err  error
	full bool
}

var reqPool = sync.Pool{New: func() any { return new(Request) }}

// newRequest returns a pooled request with a window of n segments.
func newRequest(n int) *Request {
	r := reqPool.Get().(*Request)
	r.sent, r.emitted, r.held = 0, 0, 0
	if cap(r.done) < n {
		r.done = make(chan segResult, n)
	}
	if cap(r.slots) < n {
		r.slots = make([]segResult, n)
	}
	r.slots = r.slots[:n]
	return r
}

// release returns the request to the pool. Only legal once every
// submitted job has been emitted (flush guarantees this).
func (r *Request) release() {
	reqPool.Put(r)
}

// Complete is the worker-side completion signal for segment idx. It
// never blocks: the channel holds the whole request. It must be the
// worker's last touch of the request and of the job that carried it.
func (r *Request) Complete(idx int, body *Buf, err error) {
	r.done <- segResult{idx: idx, body: body, err: err, full: true}
}

// poll folds every completion already buffered and returns without
// blocking.
func (r *Request) poll(emit func(*Buf, error)) {
	for {
		select {
		case c := <-r.done:
			r.fold(c, emit)
		default:
			return
		}
	}
}

// waitOne blocks for a single completion (the submit path uses it to
// cap in-flight segments at the caller's worker budget), then folds
// whatever else is ready.
func (r *Request) waitOne(emit func(*Buf, error)) {
	r.fold(<-r.done, emit)
	r.poll(emit)
}

// submitted records that one more job was handed to the engine. The
// request must see exactly that many Complete calls before flush
// returns.
func (r *Request) submitted() { r.sent++ }

// pending is the number of submitted segments not yet emitted.
func (r *Request) pending() int { return r.sent - r.emitted }

// flush blocks until every submitted segment has been emitted. It must
// run even on error paths: a request may only be released (and its job
// storage reused) once no worker can still touch it.
func (r *Request) flush(emit func(*Buf, error)) {
	for r.emitted < r.sent {
		r.fold(<-r.done, emit)
	}
}

// fold stores one completion in its slot and emits the filled run
// starting at the cursor, clearing each slot it emits.
func (r *Request) fold(c segResult, emit func(*Buf, error)) {
	r.slots[c.idx] = c
	r.held++
	for r.emitted < len(r.slots) && r.slots[r.emitted].full {
		s := r.slots[r.emitted]
		r.slots[r.emitted] = segResult{}
		r.emitted++
		r.held--
		emit(s.body, s.err)
	}
	if k := engObs.Load(); k != nil {
		k.reorderDepth.Observe(int64(r.held))
	}
}

// SubmitAndStream drives a whole request through the engine: it submits
// jobs produced by job(i) for i in [0,n), keeps at most maxInflight
// segments outstanding when maxInflight > 0, streams completions
// through emit in index order as they land, and returns once every
// submitted segment has been emitted. On a submit failure (context
// cancellation or engine close) it stops submitting, waits out the
// segments already in flight, and returns the error. Jobs signal
// through Request.Complete; the rest of the request stays internal.
func (e *Engine) SubmitAndStream(ctx context.Context, n, maxInflight int,
	job func(i int, r *Request) Job, emit func(*Buf, error)) error {
	r := newRequest(n)
	defer r.release()
	if k := engObs.Load(); k != nil {
		k.requests.Inc()
	}
	var submitErr error
	for i := 0; i < n; i++ {
		for maxInflight > 0 && r.pending() >= maxInflight {
			r.waitOne(emit)
		}
		if err := e.Submit(ctx, job(i, r)); err != nil {
			submitErr = err
			break
		}
		r.submitted()
		r.poll(emit)
	}
	r.flush(emit)
	return submitErr
}
