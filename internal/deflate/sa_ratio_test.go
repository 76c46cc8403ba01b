package deflate

import (
	"bytes"
	"compress/zlib"
	"io"
	"math/rand"
	"testing"

	"lzssfpga/internal/lzss"
	"lzssfpga/internal/workload"
)

// saRatioInputs mirrors the gen2 corpus table (internal/lzss) for the
// byte-level half of the cross-matcher battery.
func saRatioInputs(t *testing.T) map[string][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	random := make([]byte, 96*1024)
	rng.Read(random)
	mixed := make([]byte, 64*1024)
	rng.Read(mixed[:len(mixed)/2])
	copy(mixed[len(mixed)/2:], bytes.Repeat([]byte("the quick brown fox "), 1700))
	return map[string][]byte{
		"random": random,
		"zeros":  make([]byte, 64*1024),
		"wiki":   workload.Wiki(96*1024, 3),
		"mixed":  mixed,
		"tiny":   []byte("abc"),
		"empty":  nil,
	}
}

func zlibSizeAt(t *testing.T, data []byte, p lzss.Params) int {
	t.Helper()
	cmds, _, err := lzss.Compress(data, p)
	if err != nil {
		t.Fatal(err)
	}
	z, err := ZlibCompress(cmds, data, p.Window)
	if err != nil {
		t.Fatal(err)
	}
	return len(z)
}

// TestSARatioMonotonicVsGreedyLevel6: on every corpus of the gen2
// table, each suffix-array level's zlib output must be no larger than
// the GREEDY level-6 output (level-6 parameters with lazy matching
// off) — the ratio-monotonicity half of the cross-matcher property
// suite. Decoding byte-exactness is asserted along the way with the
// stdlib oracle.
func TestSARatioMonotonicVsGreedyLevel6(t *testing.T) {
	inputs := saRatioInputs(t)
	g6 := lzss.LevelParams(lzss.LevelDefault, 32768, 15)
	g6.Lazy, g6.MaxLazy = false, 0
	for name, data := range inputs {
		greedySize := zlibSizeAt(t, data, g6)
		for _, lvl := range []lzss.Level{10, 11, 12} {
			p := lzss.SARatioParams(lvl)
			cmds, _, err := lzss.Compress(data, p)
			if err != nil {
				t.Fatal(err)
			}
			z, err := ZlibCompress(cmds, data, p.Window)
			if err != nil {
				t.Fatal(err)
			}
			zr, err := zlib.NewReader(bytes.NewReader(z))
			if err != nil {
				t.Fatalf("%s level %d: %v", name, lvl, err)
			}
			out, err := io.ReadAll(zr)
			zr.Close()
			if err != nil || !bytes.Equal(out, data) {
				t.Fatalf("%s level %d: stdlib round trip failed: %v", name, lvl, err)
			}
			if len(z) > greedySize {
				t.Fatalf("%s level %d: SA output %d bytes > greedy level-6 %d bytes",
					name, lvl, len(z), greedySize)
			}
		}
	}
}

// TestSAParallelPipeline: the pooled parallel pipeline must serve the
// SA tier per-segment — multi-segment payloads, both with and without
// dictionary carry-over, round-tripping through the stdlib and the
// hardened inflater.
func TestSAParallelPipeline(t *testing.T) {
	data := workload.Wiki(1<<20, 5)
	p := lzss.SARatioParams(11)
	for _, tc := range []struct {
		name  string
		carry bool
	}{{"segmented", false}, {"carry", true}} {
		t.Run(tc.name, func(t *testing.T) {
			z, err := compressPar(data, p, ParallelOpts{Segment: 128 << 10, Workers: 4, Carry: tc.carry})
			if err != nil {
				t.Fatal(err)
			}
			zr, err := zlib.NewReader(bytes.NewReader(z))
			if err != nil {
				t.Fatal(err)
			}
			out, err := io.ReadAll(zr)
			zr.Close()
			if err != nil || !bytes.Equal(out, data) {
				t.Fatalf("stdlib round trip failed: %v", err)
			}
			hout, err := ZlibDecompressLimited(z, DecodeLimits{MaxOutputBytes: len(data) + 64, MaxBlocks: 1 << 16})
			if err != nil || !bytes.Equal(hout, data) {
				t.Fatalf("hardened round trip failed: %v", err)
			}
		})
	}
}
