package obs

import (
	"io"
	"runtime"
	"sync"
	"testing"
)

// TestStressConcurrentScrape hammers counters, gauges and histograms
// from GOMAXPROCS goroutines while both exposition formats scrape the
// registry — the -race gate for the whole layer (ci.sh runs this
// explicitly under the race detector).
func TestStressConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("stress_ops_total")
	g := r.Gauge("stress_gauge")
	h := r.Histogram("stress_hist", []int64{1, 4, 16, 64, 256})

	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	const opsPerWorker = 20000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(int64(i % 300))
				if i%256 == 0 {
					h.MergeBucket(2, 3, 30)
					// Late registration racing the scrape.
					r.Counter("stress_late_total").Inc()
				}
			}
		}()
	}
	// Scrape continuously until the writers finish.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	scrapes := 0
	for {
		if err := r.WritePrometheus(io.Discard); err != nil {
			t.Errorf("prometheus scrape: %v", err)
		}
		if err := r.WriteExpvar(io.Discard); err != nil {
			t.Errorf("expvar scrape: %v", err)
		}
		_ = r.Snapshot()
		scrapes++
		select {
		case <-done:
			// Final consistency check once all writers stopped.
			want := int64(workers * opsPerWorker)
			if c.Value() != want {
				t.Fatalf("counter = %d, want %d (after %d scrapes)", c.Value(), want, scrapes)
			}
			wantObs := int64(workers * opsPerWorker)
			wantObs += int64(workers) * int64((opsPerWorker+255)/256) * 3 // merged buckets
			if h.Count() != wantObs {
				t.Fatalf("hist count = %d, want %d", h.Count(), wantObs)
			}
			return
		default:
		}
	}
}
