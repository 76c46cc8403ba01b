package deflate

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"lzssfpga/internal/lzss"
	"lzssfpga/internal/workload"
)

// dictParamSets is every preset the daemon can serve with, including
// the generation-two hot path (SWFastParams: Hash4 heads + match-skip)
// that postdates the original dict equivalence tests.
func dictParamSets(window int) map[string]lzss.Params {
	return map[string]lzss.Params{
		"level-min":     lzss.LevelParams(lzss.LevelMin, window, 15),
		"level-default": lzss.LevelParams(lzss.LevelDefault, window, 15),
		"level-max":     lzss.LevelParams(lzss.LevelMax, window, 15),
		"hw-speed":      withWindow(lzss.HWSpeedParams(), window),
		"sw-fast":       withWindow(lzss.SWFastParams(), window),
	}
}

func withWindow(p lzss.Params, window int) lzss.Params {
	p.Window = window
	return p
}

// Serial preset-dictionary compression must round-trip byte-exact
// through both our inflater and the stdlib across every level,
// including the gen-two greedy hot path.
func TestZlibCompressDictAllLevels(t *testing.T) {
	dict := workload.JSONish(8<<10, 11)
	data := workload.JSONish(20<<10, 99)
	for name, p := range dictParamSets(32768) {
		t.Run(name, func(t *testing.T) {
			z, err := ZlibCompressDict(data, dict, p)
			if err != nil {
				t.Fatal(err)
			}
			out, err := ZlibDecompressDict(z, dict)
			if err != nil || !bytes.Equal(out, data) {
				t.Fatalf("own decode: %v", err)
			}
			zr, err := zlibNewReaderDict(bytes.NewReader(z), dict)
			if err != nil {
				t.Fatalf("stdlib rejected stream: %v", err)
			}
			std, err := io.ReadAll(zr)
			if err != nil || !bytes.Equal(std, data) {
				t.Fatalf("stdlib decode: %v", err)
			}
		})
	}
}

// ParallelCompress with Carry (carry-over mode, no FDICT container)
// under the gen-two hot path: multi-segment cuts whose matchers are
// preset with the previous segment's window must still produce a stream
// any inflater decodes byte-exact.
func TestParallelCompressDictGenTwo(t *testing.T) {
	defer ResetDefaultEngine()
	corpora := map[string][]byte{
		"wiki": workload.Wiki(300<<10, 3),
		"json": workload.JSONish(300<<10, 4),
	}
	for name, p := range dictParamSets(4096) {
		for cname, data := range corpora {
			for _, segment := range []int{8 << 10, 64 << 10} {
				t.Run(fmt.Sprintf("%s/%s/seg%dk", name, cname, segment>>10), func(t *testing.T) {
					z, err := compressPar(data, p, ParallelOpts{Segment: segment, Workers: 4, Carry: true})
					if err != nil {
						t.Fatal(err)
					}
					out, err := ZlibDecompress(z)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(out, data) {
						t.Fatal("round trip mismatch")
					}
				})
			}
		}
	}
}

// ParallelCompress with Dict: the parallel FDICT path must round-trip
// byte-exact against ZlibDecompressDict and the stdlib across every
// level and multi-segment cut, with segment 0's matches reaching into
// the preset window.
func TestParallelCompressPresetRoundTrip(t *testing.T) {
	defer ResetDefaultEngine()
	dict := workload.JSONish(8<<10, 21)
	data := workload.JSONish(200<<10, 77)
	for name, p := range dictParamSets(32768) {
		for _, segment := range []int{16 << 10, 256 << 10} {
			t.Run(fmt.Sprintf("%s/seg%dk", name, segment>>10), func(t *testing.T) {
				z, err := compressPar(data, p, ParallelOpts{Segment: segment, Workers: 4, Dict: dict})
				if err != nil {
					t.Fatal(err)
				}
				out, err := ZlibDecompressDict(z, dict)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out, data) {
					t.Fatal("round trip mismatch")
				}
				zr, err := zlibNewReaderDict(bytes.NewReader(z), dict)
				if err != nil {
					t.Fatalf("stdlib rejected stream: %v", err)
				}
				std, err := io.ReadAll(zr)
				if err != nil || !bytes.Equal(std, data) {
					t.Fatalf("stdlib decode: %v", err)
				}
				// Wrong dictionary must be rejected by DICTID.
				if _, err := ZlibDecompressDict(z, []byte("wrong")); err == nil {
					t.Fatal("wrong dictionary accepted")
				}
			})
		}
	}
}

// A dictionary longer than the window must be capped to its trailing
// Window-1 bytes exactly like the serial path, keeping DICTID computed
// over the full dictionary (RFC 1950 requires the checksum of what the
// decompressor was handed, not of the slice the matcher used).
func TestParallelCompressPresetLongDict(t *testing.T) {
	defer ResetDefaultEngine()
	p := withWindow(lzss.SWFastParams(), 4096)
	dict := workload.JSONish(16<<10, 5) // 4x the window
	data := workload.JSONish(64<<10, 6)
	z, err := compressPar(data, p, ParallelOpts{Segment: 8 << 10, Workers: 4, Dict: dict})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ZlibDecompressDict(z, dict)
	if err != nil || !bytes.Equal(out, data) {
		t.Fatalf("long-dict round trip: %v", err)
	}
	zr, err := zlibNewReaderDict(bytes.NewReader(z), dict)
	if err != nil {
		t.Fatal(err)
	}
	std, err := io.ReadAll(zr)
	if err != nil || !bytes.Equal(std, data) {
		t.Fatalf("stdlib long-dict decode: %v", err)
	}
}

// The preset window must actually be used: a short payload made of
// dictionary boilerplate compresses materially better with the
// dictionary than without, in the parallel path too.
func TestParallelPresetImprovesRatio(t *testing.T) {
	defer ResetDefaultEngine()
	p := withWindow(lzss.SWFastParams(), 32768)
	dict := workload.JSONish(16<<10, 40)
	data := workload.JSONish(4<<10, 40) // same seed: same schema and value pools
	plain, err := compressPar(data, p, ParallelOpts{Carry: true})
	if err != nil {
		t.Fatal(err)
	}
	preset, err := compressPar(data, p, ParallelOpts{Dict: dict})
	if err != nil {
		t.Fatal(err)
	}
	if len(preset) >= len(plain) {
		t.Fatalf("preset dictionary did not help: %d vs %d bytes", len(preset), len(plain))
	}
}
