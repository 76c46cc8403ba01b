// Package engine is the persistent execution core of the parallel
// compression pipeline: a fixed set of long-lived worker goroutines
// reading one bounded job queue, a per-request reorder window that
// streams completed segments back in index order (reorder.go) and a
// size-classed buffer arena (arena.go).
//
// The engine exists to amortize setup across requests, the way the
// paper's hardware pipeline amortizes it across blocks: goroutines are
// spawned once, not per call; queue capacity is the natural
// backpressure bound; and the hot request path touches only pooled or
// arena-backed memory. The engine itself knows nothing about
// compression — jobs are an interface — so internal/deflate can sit on
// top without an import cycle.
package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Job is one unit of work. Run receives the id of the worker executing
// it (0-based), which callers use to label per-worker trace rows. Any
// worker may run any job. A job must not be touched by the submitter
// again until it has signalled its own completion (the deflate jobs
// signal through a Request).
type Job interface {
	Run(worker int)
}

// Config sizes an Engine. The zero value selects GOMAXPROCS workers and
// a queue depth of 32 jobs per worker.
type Config struct {
	// Workers is the number of worker goroutines.
	Workers int
	// QueueDepth is the job queue's capacity per worker: the one queue
	// every worker reads holds Workers × QueueDepth jobs, and a full
	// queue blocks submitters (backpressure) rather than growing memory.
	QueueDepth int
}

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("engine: closed")

// Engine is a persistent worker pool over one bounded job queue. Safe
// for concurrent use; the zero value is not usable — construct with New.
type Engine struct {
	q       chan Job
	stop    chan struct{}
	wg      sync.WaitGroup
	workers int
	done    atomic.Bool
}

// New builds the engine and starts its workers.
func New(cfg Config) *Engine {
	n := cfg.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = 32
	}
	e := &Engine{
		q:       make(chan Job, n*depth),
		stop:    make(chan struct{}),
		workers: n,
	}
	e.wg.Add(n)
	for i := 0; i < n; i++ {
		go e.worker(i)
	}
	return e
}

// Workers returns the worker count.
func (e *Engine) Workers() int { return e.workers }

// Submit enqueues j. When the queue is full it blocks — the engine's
// backpressure — until space frees, ctx is done, or the engine closes.
func (e *Engine) Submit(ctx context.Context, j Job) error {
	if e.done.Load() {
		return ErrClosed
	}
	select {
	case e.q <- j:
	default:
		select {
		case e.q <- j:
		case <-ctx.Done():
			return ctx.Err()
		case <-e.stop:
			return ErrClosed
		}
	}
	if k := engObs.Load(); k != nil {
		k.queueDepth.Observe(int64(len(e.q)))
	}
	return nil
}

// Close stops the workers and waits for them to exit. Jobs already
// queued are drained and executed first; Submit during or after Close
// returns ErrClosed. Close is idempotent.
func (e *Engine) Close() {
	if e.done.Swap(true) {
		return
	}
	close(e.stop)
	e.wg.Wait()
}

// worker is the persistent loop: run queued jobs until Close, then
// drain whatever is still queued so no submitted job is stranded.
func (e *Engine) worker(id int) {
	defer e.wg.Done()
	for {
		select {
		case j := <-e.q:
			e.run(id, j)
		case <-e.stop:
			for {
				select {
				case j := <-e.q:
					e.run(id, j)
				default:
					return
				}
			}
		}
	}
}

// run executes one job, charging its wall time to the busy counter.
func (e *Engine) run(id int, j Job) {
	start := time.Now()
	j.Run(id)
	if k := engObs.Load(); k != nil {
		k.jobs.Inc()
		k.jobNs.Add(time.Since(start).Nanoseconds())
	}
}
