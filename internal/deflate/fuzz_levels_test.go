package deflate

import (
	"bytes"
	"compress/zlib"
	"io"
	"testing"

	"lzssfpga/internal/lzss"
	"lzssfpga/internal/token"
)

// fuzzLevels spans every matcher family and parse policy behind the
// level dial: generation-two greedy (1, 3), chain-lazy (6, 9), and the
// suffix-array optimal-parse tier (10, 12).
var fuzzLevels = []lzss.Level{1, 3, 6, 9, 10, 12}

// FuzzRoundTripAllLevels is the cross-matcher differential oracle:
// whatever the input, every compression level must produce a stream
// that BOTH Go's compress/zlib and the hardened ZlibDecompressLimited
// decode back to the exact input bytes. Each level's commands go
// through every block policy: fixed only (ZlibCompress), the cheapest
// of stored, fixed and dynamic (ZlibCompressBest) and split blocks
// (ZlibCompressSplit). Committed seeds cover the degenerate shapes that
// stress matchers differently (zeros, period-1/3/8 repeats, random, a
// wiki slice); see testdata/fuzz/FuzzRoundTripAllLevels.
func FuzzRoundTripAllLevels(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("abcabcabcabcabcabc"))
	encoders := []struct {
		name string
		fn   func(cmds []token.Command, src []byte, window int) ([]byte, error)
	}{
		{"fixed", ZlibCompress},
		{"best", ZlibCompressBest},
		{"split", ZlibCompressSplit},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<17 {
			data = data[:1<<17]
		}
		for _, lvl := range fuzzLevels {
			p := lzss.LevelParams(lvl, 32768, 15)
			cmds, _, err := lzss.Compress(data, p)
			if err != nil {
				t.Fatalf("level %d: compress: %v", lvl, err)
			}
			for _, enc := range encoders {
				z, err := enc.fn(cmds, data, p.Window)
				if err != nil {
					t.Fatalf("level %d %s: encode: %v", lvl, enc.name, err)
				}
				// Oracle 1: the Go standard library.
				zr, err := zlib.NewReader(bytes.NewReader(z))
				if err != nil {
					t.Fatalf("level %d %s: stdlib reader: %v", lvl, enc.name, err)
				}
				out, err := io.ReadAll(zr)
				zr.Close()
				if err != nil {
					t.Fatalf("level %d %s: stdlib decode: %v", lvl, enc.name, err)
				}
				if !bytes.Equal(out, data) {
					t.Fatalf("level %d %s: stdlib decode mismatch (%d bytes in, %d out)", lvl, enc.name, len(data), len(out))
				}
				// Oracle 2: the hardened limited inflater.
				lim := DecodeLimits{MaxOutputBytes: len(data) + 64, MaxBlocks: 1 << 16}
				hout, err := ZlibDecompressLimited(z, lim)
				if err != nil {
					t.Fatalf("level %d %s: hardened decode: %v", lvl, enc.name, err)
				}
				if !bytes.Equal(hout, data) {
					t.Fatalf("level %d %s: hardened decode mismatch", lvl, enc.name)
				}
			}
		}
	})
}
