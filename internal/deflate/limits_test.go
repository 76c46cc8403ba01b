package deflate

import (
	"bytes"
	"compress/zlib"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"lzssfpga/internal/lzss"
)

// zlibCompress is a test helper producing a valid zlib stream.
func zlibCompress(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := NewWriter(&buf, lzss.HWSpeedParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestInflateLimitedOutputCap(t *testing.T) {
	data := bytes.Repeat([]byte("abcdefgh"), 4096) // 32 KiB, compresses well
	cmds, _, err := lzss.Compress(data, lzss.HWSpeedParams())
	if err != nil {
		t.Fatal(err)
	}
	body, err := FixedDeflate(cmds)
	if err != nil {
		t.Fatal(err)
	}

	// Over the cap: typed rejection, both sentinels visible.
	_, err = InflateLimited(body, DecodeLimits{MaxOutputBytes: 1024})
	if !errors.Is(err, ErrLimit) || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("cap violation returned %v", err)
	}

	// At the cap: decodes fine.
	out, err := InflateLimited(body, DecodeLimits{MaxOutputBytes: len(data)})
	if err != nil || !bytes.Equal(out, data) {
		t.Fatalf("decode at exact cap: %v", err)
	}

	// Zero cap: unlimited.
	if _, err := InflateLimited(body, DecodeLimits{}); err != nil {
		t.Fatalf("unlimited decode: %v", err)
	}
}

// TestInflateOutputGrowthBounded decodes compress/zlib-compressed
// zeros, which expand far past the decoder's first reservation, under a
// limit of exactly their size. The output must end within one stored
// block's slack of the limit, and the decode must allocate no more than
// three times the limit in all, which a growth step that at least
// doubles keeps to.
func TestInflateOutputGrowthBounded(t *testing.T) {
	zeros := make([]byte, 64<<10)
	for _, size := range []int{8 << 20, 64 << 20} {
		var z bytes.Buffer
		w := zlib.NewWriter(&z)
		for n := 0; n < size; n += len(zeros) {
			w.Write(zeros)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err := ZlibDecompressLimited(z.Bytes(), DecodeLimits{MaxOutputBytes: size})
		runtime.ReadMemStats(&after)
		if err != nil || len(out) != size {
			t.Fatalf("%d zeros: decoded %d bytes, %v", size, len(out), err)
		}
		if c := cap(out); c > size+64<<10 {
			t.Errorf("%d zeros: output capacity %d, over the limit by %d", size, c, c-size)
		}
		a := after.TotalAlloc - before.TotalAlloc
		if a > 3*uint64(size) {
			t.Errorf("%d zeros: decode allocated %d bytes, %.1fx the limit", size, a, float64(a)/float64(size))
		}
		t.Logf("%d zeros: capacity %d, allocated %d bytes (%.2fx)", size, cap(out), a, float64(a)/float64(size))
	}
}

func TestInflateLimitedStoredCap(t *testing.T) {
	// A single stored block of 2000 bytes against a 100-byte cap.
	var stream []byte
	stream = append(stream, 0x01, 0xD0, 0x07, 0x2F, 0xF8) // final, LEN=2000, NLEN
	stream = append(stream, make([]byte, 2000)...)
	if _, err := InflateLimited(stream, DecodeLimits{MaxOutputBytes: 100}); !errors.Is(err, ErrLimit) {
		t.Fatalf("stored block over cap returned %v", err)
	}
	if out, err := InflateLimited(stream, DecodeLimits{MaxOutputBytes: 2000}); err != nil || len(out) != 2000 {
		t.Fatalf("stored block at cap: %d bytes, %v", len(out), err)
	}
}

func TestInflateLimitedBlockCap(t *testing.T) {
	// Endless empty non-final stored blocks: MaxBlocks is the only
	// thing that terminates this stream shape.
	var stream []byte
	for i := 0; i < 50; i++ {
		stream = append(stream, 0x00, 0x00, 0x00, 0xFF, 0xFF)
	}
	stream = append(stream, 0x01, 0x00, 0x00, 0xFF, 0xFF)
	if out, err := InflateLimited(stream, DecodeLimits{MaxBlocks: 100}); err != nil || len(out) != 0 {
		t.Fatalf("51 blocks under a 100-block cap: %v", err)
	}
	if _, err := InflateLimited(stream, DecodeLimits{MaxBlocks: 10}); !errors.Is(err, ErrLimit) {
		t.Fatalf("51 blocks under a 10-block cap returned %v", err)
	}
}

func TestTruncationErrorsAreTyped(t *testing.T) {
	data := []byte(strings.Repeat("the quick brown fox ", 200))
	z := zlibCompress(t, data)
	body := z[2 : len(z)-4]

	// Every proper prefix must fail with ErrCorrupt, and truncations
	// must also match io.ErrUnexpectedEOF — never panic, never succeed.
	for cut := 0; cut < len(body); cut++ {
		_, err := Inflate(body[:cut])
		if err == nil {
			t.Fatalf("prefix %d/%d decoded successfully", cut, len(body))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("prefix %d: error %v does not wrap ErrCorrupt", cut, err)
		}
	}
	// Cutting inside the bit stream (past the headers) is a truncation
	// specifically.
	if _, err := Inflate(body[:len(body)/2]); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("mid-stream truncation: %v does not match io.ErrUnexpectedEOF", err)
	}

	// Same contract for the zlib container.
	for cut := 0; cut < len(z); cut++ {
		_, err := ZlibDecompress(z[:cut])
		if err == nil {
			t.Fatalf("zlib prefix %d/%d decoded successfully", cut, len(z))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("zlib prefix %d: error %v does not wrap ErrCorrupt", cut, err)
		}
	}
}

func TestStreamReaderTruncationTyped(t *testing.T) {
	data := []byte(strings.Repeat("stream truncation contract ", 100))
	z := zlibCompress(t, data)
	for _, cut := range []int{1, 2, 5, len(z) / 4, len(z) / 2, len(z) - 5, len(z) - 1} {
		zr, err := NewReader(bytes.NewReader(z[:cut]))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("cut=%d: NewReader error %v not typed", cut, err)
			}
			continue
		}
		_, err = io.ReadAll(zr)
		if err == nil {
			t.Fatalf("cut=%d/%d: truncated stream read to clean EOF", cut, len(z))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut=%d: read error %v not typed", cut, err)
		}
	}

	// The intact stream still reads cleanly.
	zr, err := NewReader(bytes.NewReader(z))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(zr)
	if err != nil || !bytes.Equal(out, data) {
		t.Fatalf("intact stream: %v", err)
	}
}
