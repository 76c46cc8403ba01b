package main

import (
	"bytes"
	"compress/flate"
	"runtime"
	"sort"
	"sync"
	"time"

	"lzssfpga/internal/workload"
)

// refNominal is the reference job's speed, MB/s per CPU, on the
// two-core host the benchmark was tuned on when that host runs at its
// best.
const refNominal = 70.0

// refJob is the yardstick every timing is scaled by. A shared host runs,
// for seconds to minutes at a time, up to a third slower than its best
// on every CPU; over ten runs a few minutes apart that spread unscaled
// metrics by up to 0.35 of their median. Between measurements the
// benchmark times Go's own compress/flate at BestSpeed over 1 MiB of
// generated text, on every CPU at once; the job is code this repository
// does not contain, so no change to the repository moves it. A time is
// multiplied, and a rate divided, by the job's speed over refNominal,
// which reports both as on the host at its best. The unscaled values are
// printed beside.
type refJob struct {
	in   []byte
	ws   []*flate.Writer
	bufs []bytes.Buffer
}

func newRefJob() *refJob {
	n := runtime.GOMAXPROCS(0)
	r := &refJob{in: workload.Wiki(1<<20, 0), ws: make([]*flate.Writer, n), bufs: make([]bytes.Buffer, n)}
	for i := range r.ws {
		r.ws[i], _ = flate.NewWriter(&r.bufs[i], flate.BestSpeed) // BestSpeed is a valid level
	}
	return r
}

// factor runs the job once on every CPU at once and returns its mean
// speed over refNominal: below 1 while the host runs slow.
func (r *refJob) factor() float64 {
	speeds := make([]float64, len(r.ws))
	var wg sync.WaitGroup
	for i := range r.ws {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.bufs[i].Reset()
			r.ws[i].Reset(&r.bufs[i])
			t := time.Now()
			r.ws[i].Write(r.in) //nolint:errcheck // writes to a bytes.Buffer
			r.ws[i].Close()     //nolint:errcheck // writes to a bytes.Buffer
			speeds[i] = float64(len(r.in)) / (1 << 20) / time.Since(t).Seconds()
		}(i)
	}
	wg.Wait()
	var sum float64
	for _, s := range speeds {
		sum += s
	}
	return sum / float64(len(speeds)) / refNominal
}

// around returns the median factor of two readings before f runs and
// two after: the host's speed while f ran.
func (r *refJob) around(f func()) float64 {
	fs := []float64{r.factor(), r.factor()}
	f()
	fs = append(fs, r.factor(), r.factor())
	sort.Float64s(fs)
	return (fs[1] + fs[2]) / 2
}
