package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fnJob adapts a closure to the Job interface for tests.
type fnJob func(worker int)

func (f fnJob) Run(worker int) { f(worker) }

func TestEngineRunsAllJobs(t *testing.T) {
	e := New(Config{Workers: 2, QueueDepth: 4})
	defer e.Close()
	const n = 100
	var ran atomic.Int64
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		if err := e.Submit(context.Background(), fnJob(func(int) {
			ran.Add(1)
			wg.Done()
		})); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if ran.Load() != n {
		t.Fatalf("ran %d of %d jobs", ran.Load(), n)
	}
}

func TestEngineRunsJobsPastBlockedWorker(t *testing.T) {
	e := New(Config{Workers: 2, QueueDepth: 16})
	defer e.Close()
	// Block one worker; the other must run every job queued behind it.
	gate := make(chan struct{})
	blocked := make(chan struct{})
	if err := e.Submit(context.Background(), fnJob(func(int) {
		close(blocked)
		<-gate
	})); err != nil {
		t.Fatal(err)
	}
	<-blocked
	const n = 32
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		if err := e.Submit(context.Background(), fnJob(func(int) { wg.Done() })); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait() // completes only if the free worker drains the queue
	close(gate)
}

func TestEngineCloseDrainsQueuedJobs(t *testing.T) {
	e := New(Config{Workers: 2, QueueDepth: 64})
	// Stall both workers so submissions pile up in the queues.
	gate := make(chan struct{})
	started := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		if err := e.Submit(context.Background(), fnJob(func(int) {
			started <- struct{}{}
			<-gate
		})); err != nil {
			t.Fatal(err)
		}
	}
	<-started
	<-started
	const n = 40
	var ran atomic.Int64
	for i := 0; i < n; i++ {
		if err := e.Submit(context.Background(), fnJob(func(int) { ran.Add(1) })); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	e.Close() // must wait for every queued job to execute
	if ran.Load() != n {
		t.Fatalf("Close drained %d of %d queued jobs", ran.Load(), n)
	}
	if err := e.Submit(context.Background(), fnJob(func(int) {})); err != ErrClosed {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	e.Close() // idempotent
}

func TestEngineSubmitHonorsContext(t *testing.T) {
	e := New(Config{Workers: 1, QueueDepth: 1})
	defer e.Close()
	gate := make(chan struct{})
	defer close(gate)
	blocked := make(chan struct{})
	if err := e.Submit(context.Background(), fnJob(func(int) {
		close(blocked)
		<-gate
	})); err != nil {
		t.Fatal(err)
	}
	<-blocked
	// Fill the single queue slot, then the next submit must block.
	if err := e.Submit(context.Background(), fnJob(func(int) {})); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if err := e.Submit(ctx, fnJob(func(int) {})); err != context.Canceled {
		t.Fatalf("blocked Submit = %v, want context.Canceled", err)
	}
}

// TestEngineQueueBoundIsWorkersTimesDepth pins the backpressure bound:
// with every worker held, the shared queue takes exactly Workers ×
// QueueDepth jobs and the next Submit blocks.
func TestEngineQueueBoundIsWorkersTimesDepth(t *testing.T) {
	const workers, depth = 2, 2
	e := New(Config{Workers: workers, QueueDepth: depth})
	gate := make(chan struct{})
	release := sync.OnceFunc(func() {
		close(gate)
		e.Close()
	})
	defer release()
	started := make(chan struct{}, workers)
	for i := 0; i < workers; i++ {
		if err := e.Submit(context.Background(), fnJob(func(int) {
			started <- struct{}{}
			<-gate
		})); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < workers; i++ {
		<-started
	}
	var ran atomic.Int64
	count := fnJob(func(int) { ran.Add(1) })
	// A cancelled context makes any Submit that would block return at
	// once, so these succeed only while the queue has room.
	done, cancelDone := context.WithCancel(context.Background())
	cancelDone()
	for i := 0; i < workers*depth; i++ {
		if err := e.Submit(done, count); err != nil {
			t.Fatalf("submit %d of %d with both workers held: %v", i+1, workers*depth, err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if err := e.Submit(ctx, count); err != context.Canceled {
		t.Fatalf("submit past the bound = %v, want it to block until cancelled", err)
	}
	release() // runs the queued jobs
	if ran.Load() != workers*depth {
		t.Fatalf("ran %d queued jobs, want %d", ran.Load(), workers*depth)
	}
}

func TestRequestReordersCompletions(t *testing.T) {
	const n = 64
	r := newRequest(n)
	defer r.release()
	// Complete in a shuffled order; emission must be in index order.
	order := rand.New(rand.NewSource(7)).Perm(n)
	for _, idx := range order {
		b := GetBuf(16)
		b.B = append(b.B, byte(idx))
		r.submitted()
		r.Complete(idx, b, nil)
	}
	next := 0
	r.flush(func(b *Buf, err error) {
		if err != nil {
			t.Fatal(err)
		}
		if int(b.B[0]) != next {
			t.Fatalf("emitted segment %d, want %d", b.B[0], next)
		}
		next++
		PutBuf(b)
	})
	if next != n || r.pending() != 0 {
		t.Fatalf("emitted %d of %d, pending %d", next, n, r.pending())
	}
}

func TestSubmitAndStreamInOrderUnderInflightCap(t *testing.T) {
	e := New(Config{Workers: 4, QueueDepth: 8})
	defer e.Close()
	for _, inflight := range []int{0, 1, 2, 7} {
		const n = 50
		var got []int
		err := e.SubmitAndStream(context.Background(), n, inflight,
			func(i int, r *Request) Job {
				return fnJob(func(int) {
					if i%3 == 0 {
						time.Sleep(time.Duration(i%5) * 100 * time.Microsecond)
					}
					b := GetBuf(8)
					b.B = append(b.B, byte(i))
					r.Complete(i, b, nil)
				})
			},
			func(b *Buf, err error) {
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, int(b.B[0]))
				PutBuf(b)
			})
		if err != nil {
			t.Fatalf("inflight=%d: %v", inflight, err)
		}
		if len(got) != n {
			t.Fatalf("inflight=%d: emitted %d of %d", inflight, len(got), n)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("inflight=%d: out of order at %d: %d", inflight, i, v)
			}
		}
	}
}

// TestSubmitAndStreamAcrossRequestReuse runs several requests through
// one engine so pooled requests are reused: first one whose context is
// cancelled while Submit is blocked (fewer than n segments go in), then
// a larger n, then a smaller one. Every run must emit exactly the
// indices it submitted, in order, once each, with each error at its own
// index and no body left over from an earlier run.
func TestSubmitAndStreamAcrossRequestReuse(t *testing.T) {
	const workers, depth = 2, 1
	e := New(Config{Workers: workers, QueueDepth: depth})
	defer e.Close()
	segErr := func(run, i int) error {
		if i%7 != 3 {
			return nil
		}
		return fmt.Errorf("run %d segment %d", run, i)
	}
	runs := []struct {
		n, inflight int
		cancel      bool
	}{{16, 0, true}, {40, 0, false}, {10, 3, false}}
	for round := 0; round < 2; round++ {
		for ri, rc := range runs {
			run := round*len(runs) + ri
			ctx, cancel := context.WithCancel(context.Background())
			var ran atomic.Int64
			got := 0
			err := e.SubmitAndStream(ctx, rc.n, rc.inflight,
				func(i int, r *Request) Job {
					if rc.cancel && i == workers+workers*depth {
						// Both workers hold a job and the queue is full,
						// so this Submit blocks until the cancel.
						go func() {
							time.Sleep(10 * time.Millisecond)
							cancel()
						}()
					}
					return fnJob(func(int) {
						ran.Add(1)
						switch {
						case rc.cancel && i < workers:
							<-ctx.Done()
							// Segment 0 lands last, so later completions
							// wait in the window.
							time.Sleep(time.Duration(workers-i) * time.Millisecond)
						case i%3 == 0:
							time.Sleep(time.Duration(i%5) * 100 * time.Microsecond)
						}
						if err := segErr(run, i); err != nil {
							r.Complete(i, nil, err)
							return
						}
						b := GetBuf(8)
						b.B = append(b.B, byte(run), byte(i))
						r.Complete(i, b, nil)
					})
				},
				func(b *Buf, err error) {
					want := segErr(run, got)
					switch {
					case want != nil:
						if err == nil || err.Error() != want.Error() || b != nil {
							t.Errorf("run %d: emit %d got (%v, %v), want error %q", run, got, b, err, want)
						}
					case err != nil || b == nil:
						t.Errorf("run %d: emit %d got (%v, %v), want a body", run, got, b, err)
					case len(b.B) != 2 || int(b.B[0]) != run || int(b.B[1]) != got:
						t.Errorf("run %d: emit %d carried body %v", run, got, b.B)
					}
					PutBuf(b)
					got++
				})
			cancel()
			if rc.cancel {
				if err != context.Canceled {
					t.Fatalf("run %d: SubmitAndStream = %v, want context.Canceled", run, err)
				}
				if ran.Load() >= int64(rc.n) {
					t.Fatalf("run %d: all %d segments went in despite the cancel", run, rc.n)
				}
			} else if err != nil {
				t.Fatalf("run %d: %v", run, err)
			}
			if int64(got) != ran.Load() {
				t.Fatalf("run %d: emitted %d segments, %d were submitted", run, got, ran.Load())
			}
		}
	}
}

func TestArenaClassesAndReuse(t *testing.T) {
	cases := []struct{ n, wantCap int }{
		{0, 4 << 10}, {1, 4 << 10}, {4 << 10, 4 << 10},
		{4<<10 + 1, 8 << 10}, {100 << 10, 128 << 10}, {8 << 20, 8 << 20},
	}
	for _, c := range cases {
		b := GetBuf(c.n)
		if cap(b.B) < c.n || len(b.B) != 0 {
			t.Fatalf("GetBuf(%d): len=%d cap=%d", c.n, len(b.B), cap(b.B))
		}
		PutBuf(b)
	}
	// Oversized requests fall through to the allocator but still work.
	big := GetBuf(9 << 20)
	if cap(big.B) < 9<<20 {
		t.Fatalf("oversize GetBuf cap = %d", cap(big.B))
	}
	PutBuf(big) // clipped into the top class, must not panic
	PutBuf(nil) // no-op
	// A buffer grown by appends is reclassified by its new capacity.
	b := GetBuf(4 << 10)
	b.B = append(b.B, make([]byte, 64<<10)...)
	PutBuf(b)
}

func TestEngineCloseLeavesNoWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	e := New(Config{Workers: 8})
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		if err := e.Submit(context.Background(), fnJob(func(int) { wg.Done() })); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	e.Close()
	// Goroutine counts are noisy; retry briefly before declaring a leak.
	for i := 0; i < 50; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: %d before engine, %d after Close", before, runtime.NumGoroutine())
}
