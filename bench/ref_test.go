package main

import "testing"

func TestRefJobAroundRunsOnceAndReadsTheHost(t *testing.T) {
	r := newRefJob()
	calls := 0
	f := r.around(func() { calls++ })
	// The factor is a speed over refNominal: positive, and below twenty on
	// any host (the race detector alone slows the job twentyfold).
	if calls != 1 || !(f > 0 && f < 20) {
		t.Fatalf("around ran f %d times and read a factor of %v", calls, f)
	}
}
