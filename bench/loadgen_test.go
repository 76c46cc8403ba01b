package main

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(500, 20*time.Second, 7)
	if b := poissonSchedule(500, 20*time.Second, 7); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if c := poissonSchedule(500, 20*time.Second, 8); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] || a[i] >= 20*time.Second {
			t.Fatalf("send time %d = %v out of order or past the phase", i, a[i])
		}
	}
	// Exponential gaps at 500/s: about 10,000 arrivals with mean gap 2 ms.
	if n := len(a); math.Abs(float64(n)-10000) > 300 {
		t.Fatalf("%d arrivals in 20 s at 500/s", n)
	}
	var over4ms int
	for i := 1; i < len(a); i++ {
		if a[i]-a[i-1] > 4*time.Millisecond {
			over4ms++
		}
	}
	// P(gap > 2 mean gaps) = e^-2 ≈ 0.135 for a Poisson process.
	if share := float64(over4ms) / float64(len(a)-1); math.Abs(share-math.Exp(-2)) > 0.015 {
		t.Fatalf("share of gaps over twice the mean = %.3f, want ≈ %.3f", share, math.Exp(-2))
	}
}

func TestLatencyCountsFromDueTime(t *testing.T) {
	const n = 30
	sched := make([]time.Duration, n)
	for i := range sched {
		sched[i] = time.Duration(i) * 10 * time.Millisecond
	}
	ops := make([]op, n)
	for i := range ops {
		ops[i].idx = i
	}
	// One sender; request 5 stalls the responder for 150 ms, every other
	// request answers at once.
	samples := openLoop(sched, ops, 1, func(op) []byte { return nil }, func(w int, o op, _ []byte) (int, int, error) {
		if o.idx == 5 {
			time.Sleep(150 * time.Millisecond)
		}
		return 1, 1, nil
	})
	// Requests 6..19 fell due during the stall: each went out late, and
	// its latency counts the wait although its own round trip was quick.
	for i := 6; i < 15; i++ {
		s := samples[i]
		wait := samples[5].end - s.due
		if s.idle || s.latency() < wait-5*time.Millisecond {
			t.Fatalf("request %d: idle=%v latency %v, want at least the %v it waited behind the stall", i, s.idle, s.latency(), wait)
		}
		if rtt := s.end - s.start; rtt > 20*time.Millisecond {
			t.Fatalf("request %d: round trip %v, want a quick one", i, rtt)
		}
	}
	// Long after the stall the sender waits for due times again.
	if s := samples[n-1]; !s.idle || s.latency() > 20*time.Millisecond {
		t.Fatalf("last request: idle=%v latency %v, want an idle sender and a quick answer", s.idle, s.latency())
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var xs []float64
	for i := 10; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	d := summarize(xs)
	if d.n != 10 || d.p25 != 3 || d.p50 != 5 || d.p75 != 8 || d.p90 != 9 || d.p95 != 10 {
		t.Fatalf("summarize(1..10) = %+v, want n=10 p25=3 p50=5 p75=8 p90=9 p95=10", d)
	}
	if xs[0] != 10 {
		t.Fatal("summarize reordered its input")
	}
	if d := summarize([]float64{4}); d.n != 1 || d.p50 != 4 || d.p95 != 4 {
		t.Fatalf("summarize of one value = %+v", d)
	}
	if d := summarize(nil); d.n != 0 || !math.IsNaN(d.p50) {
		t.Fatalf("summarize of nothing = %+v, want n=0 and NaN", d)
	}
}

func TestLateGeneratorFailsTheRun(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		t.Fatal(err)
	}
	c := &config{root: root, seed: 1}
	o := &outcome{attempted: 1, verified: 1, e2e: map[string]float64{}}
	if code := finish(c, "test", o); code != 0 {
		t.Fatalf("finish of a clean run = %d, want 0", code)
	}
	o.lateP95 = ms(maxLateP95) + 1
	if code := finish(c, "test", o); code == 0 {
		t.Fatal("a generator later than the bound did not fail the run")
	}
	o.lateP95, o.mismatches = 0, 1
	if code := finish(c, "test", o); code == 0 {
		t.Fatal("a mismatched output did not fail the run")
	}
}
