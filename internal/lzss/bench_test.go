package lzss

import (
	"fmt"
	"testing"

	"lzssfpga/internal/token"
	"lzssfpga/internal/workload"
)

// benchData is the Wiki fragment every matcher benchmark runs over —
// the same corpus Table I measures, sized for stable per-op numbers.
func benchData() []byte { return workload.Wiki(1<<20, 1) }

// benchCmds keeps the benchmarks' command streams live, so the compiler
// cannot drop the work that made them.
var benchCmds []token.Command

// BenchmarkCompressGreedy times the greedy loop at the paper's
// speed-optimized setting the way bench/layers.go times the matcher:
// one matcher and one command buffer reused from op to op, so an op
// matches and does not allocate. Wiki and CAN, at a serving request
// size and at the bulk buffer size.
func BenchmarkCompressGreedy(b *testing.B) {
	p := HWSpeedParams()
	for _, c := range []struct {
		name string
		gen  workload.Generator
	}{{"wiki", workload.Wiki}, {"can", workload.CAN}} {
		for _, n := range []int{64 << 10, 4 << 20} {
			data := c.gen(n, 1)
			b.Run(fmt.Sprintf("%s/%dKiB", c.name, n>>10), func(b *testing.B) {
				m, err := NewMatcher(nil, p, nil)
				if err != nil {
					b.Fatal(err)
				}
				cmds := CompressReuse(nil, m, data) // sizes the buffer
				b.SetBytes(int64(len(data)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cmds = CompressReuse(cmds[:0], m, data)
				}
				benchCmds = cmds
			})
		}
	}
}

// BenchmarkCompressLazy exercises the deferred-match slow path at the
// default level.
func BenchmarkCompressLazy(b *testing.B) {
	data := benchData()
	p := LevelParams(LevelDefault, 32768, 15)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Compress(data, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFindMatch isolates the chain walk: hash probe, candidate
// visits and prefix compares, without command emission. One op is a
// full greedy pass over the fragment, so chains reach realistic depth.
func BenchmarkFindMatch(b *testing.B) {
	data := benchData()
	p := HWSpeedParams()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := NewMatcher(data, p, nil)
		if err != nil {
			b.Fatal(err)
		}
		pos := 0
		for pos+token.MinMatch <= len(data) {
			if l, _ := m.FindMatch(pos); l >= token.MinMatch {
				pos += l
			} else {
				pos++
			}
		}
	}
}

// BenchmarkCompare isolates the prefix comparer on long identical runs —
// the case the word-at-a-time datapath (the software mirror of the
// paper's 8→32-bit comparer widening, Table III row B) accelerates most.
func BenchmarkCompare(b *testing.B) {
	src := make([]byte, 2*token.MaxMatch+64)
	for i := range src {
		src[i] = byte(i % 7) // period-7 so a+258 matches a for 258 bytes
	}
	b.SetBytes(token.MaxMatch)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if n := matchLen(src, 0, 7*37, token.MaxMatch); n != token.MaxMatch {
			b.Fatalf("matchLen = %d, want %d", n, token.MaxMatch)
		}
	}
}

// BenchmarkCompareShort measures the mismatch-dominated regime (median
// chain candidate fails within a word).
func BenchmarkCompareShort(b *testing.B) {
	data := benchData()
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n += matchLen(data, i%1024, 4096+i%1024, 16)
	}
	if n > 16*b.N {
		b.Fatalf("matched %d bytes in %d calls of at most 16", n, b.N)
	}
}
