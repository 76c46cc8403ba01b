package lzss

import (
	"bytes"
	"testing"

	"lzssfpga/internal/workload"
)

// FuzzGreedyMatchesNaive is the greedy loop's differential: fuzzed
// bytes under every generation-one row (hardware setting, mid-depth,
// deep chain, a caller's HashFunc) against naiveGreedy, through the
// loop and through FindMatch, and under the skip-only, hash4-only and
// SWFastParams rows against naiveGen2 — commands, Stats and both
// histograms. Each row's StreamCompressor run at a fuzzed chunk size
// must then reproduce the whole-buffer run.
func FuzzGreedyMatchesNaive(f *testing.F) {
	f.Add([]byte{}, uint16(1))
	f.Add([]byte("abcabcabcabd"), uint16(5))
	f.Add(bytes.Repeat([]byte{0}, 3000), uint16(300))
	f.Add(bytes.Repeat([]byte("abc"), 700), uint16(64))
	f.Add(workload.Wiki(4096, 1), uint16(1000))
	f.Add(workload.CAN(4096, 1), uint16(7))
	f.Add(workload.Random(2048, 1), uint16(513))
	type row struct {
		p     Params
		naive func([]byte, Params) (refRun, error)
	}
	rows := map[string]row{}
	for name, p := range greedyRefParams() {
		rows[name] = row{p, func(src []byte, p Params) (refRun, error) { return naiveGreedy(src, 0, p) }}
	}
	for name, p := range gen2TestParams() {
		rows[name] = row{p, naiveGen2}
	}
	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		for name, r := range rows {
			want, err := r.naive(data, r.p)
			if err != nil {
				t.Fatal(err)
			}
			got := fastRun(t, data, 0, r.p)
			if d := got.diff(&want); d != "" {
				t.Fatalf("%s: %s", name, d)
			}
			if !r.p.gen2() { // FindMatch's policy too
				probe := findMatchRun(t, data, 0, r.p)
				if d := probe.diff(&want); d != "" {
					t.Fatalf("%s: through FindMatch: %s", name, d)
				}
			}
			if len(data) == 0 {
				continue
			}
			sc, err := NewStreamCompressor(r.p)
			if err != nil {
				t.Fatal(err)
			}
			n := 1 + int(chunk)%len(data)
			stream := refRun{}
			for i := 0; i < len(data); i += n {
				stream.cmds = append(stream.cmds, sc.Write(data[i:min(i+n, len(data))])...)
			}
			stream.cmds = append(stream.cmds, sc.Close()...)
			stream.stats, stream.ml, stream.cd = sc.Stats(), sc.m.mlHist, sc.m.cdHist
			if d := stream.diff(&got); d != "" {
				t.Fatalf("%s: stream in %d-byte writes: %s", name, n, d)
			}
		}
	})
}
