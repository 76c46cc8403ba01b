package deflate

import (
	"bytes"
	"compress/zlib"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"lzssfpga/internal/lzss"
	"lzssfpga/internal/workload"
)

func streamCompress(t *testing.T, data []byte, p lzss.Params, chunk int) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := NewWriter(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(data); i += chunk {
		end := i + chunk
		if end > len(data) {
			end = len(data)
		}
		if _, err := zw.Write(data[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestWriterStdlibInterop(t *testing.T) {
	data := workload.Wiki(500_000, 5)
	z := streamCompress(t, data, lzss.HWSpeedParams(), 12345)
	zr, err := zlib.NewReader(bytes.NewReader(z))
	if err != nil {
		t.Fatalf("stdlib rejected streaming output: %v", err)
	}
	out, err := io.ReadAll(zr)
	if err != nil || !bytes.Equal(out, data) {
		t.Fatalf("stdlib round trip failed: %v", err)
	}
}

func TestWriterEmptyStream(t *testing.T) {
	z := streamCompress(t, nil, lzss.HWSpeedParams(), 1)
	out, err := ZlibDecompress(z)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty stream round trip failed: %v (%d bytes)", err, len(out))
	}
	zr, err := zlib.NewReader(bytes.NewReader(z))
	if err != nil {
		t.Fatal(err)
	}
	if out, _ := io.ReadAll(zr); len(out) != 0 {
		t.Fatal("stdlib decoded nonempty")
	}
}

func TestWriterMultiBlock(t *testing.T) {
	// Enough commands for several blocks (blockCommands boundary).
	rng := rand.New(rand.NewSource(20))
	data := make([]byte, 500_000)
	rng.Read(data) // random → ~1 command per byte → >15 blocks
	z := streamCompress(t, data, lzss.HWSpeedParams(), 100_000)
	out, err := ZlibDecompress(z)
	if err != nil || !bytes.Equal(out, data) {
		t.Fatalf("multi-block round trip failed: %v", err)
	}
}

func TestWriterPicksDynamicWhenSmaller(t *testing.T) {
	// Skewed 9-bit-literal data: the streaming writer's dynamic choice
	// must beat a pure fixed encoding.
	rng := rand.New(rand.NewSource(21))
	data := make([]byte, 200_000)
	for i := range data {
		data[i] = 200 + byte(rng.Intn(4))
	}
	z := streamCompress(t, data, lzss.HWSpeedParams(), 65536)
	cmds, _, err := lzss.Compress(data, lzss.HWSpeedParams())
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := ZlibCompress(cmds, data, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(z) >= len(fixed) {
		t.Fatalf("streaming (%d) not better than fixed (%d) on skewed data", len(z), len(fixed))
	}
}

func TestWriterAfterClose(t *testing.T) {
	var buf bytes.Buffer
	zw, err := NewWriter(&buf, lzss.HWSpeedParams())
	if err != nil {
		t.Fatal(err)
	}
	zw.Write([]byte("x"))
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write([]byte("y")); err == nil {
		t.Fatal("write after close accepted")
	}
	if err := zw.Close(); err != nil {
		t.Fatal("second Close must be a no-op")
	}
}

// failingWriter accepts n bytes then errors.
type failingWriter struct{ n int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, io.ErrClosedPipe
	}
	if len(p) > f.n {
		p = p[:f.n]
	}
	f.n -= len(p)
	if f.n == 0 {
		return len(p), io.ErrClosedPipe
	}
	return len(p), nil
}

func TestWriterPropagatesSinkError(t *testing.T) {
	zw, err := NewWriter(&failingWriter{n: 4}, lzss.HWSpeedParams())
	if err != nil {
		t.Fatal(err)
	}
	data := workload.Wiki(300_000, 6)
	zw.Write(data)
	if err := zw.Close(); err == nil {
		t.Fatal("sink error swallowed")
	}
}

// --- streaming reader ---

func TestReaderDecodesOwnWriter(t *testing.T) {
	data := workload.CAN(300_000, 9)
	z := streamCompress(t, data, lzss.HWSpeedParams(), 7777)
	zr, err := NewReader(bytes.NewReader(z))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(zr)
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("streaming reader mismatch")
	}
}

func TestReaderDecodesStdlib(t *testing.T) {
	data := workload.Wiki(200_000, 10)
	for _, level := range []int{0, 1, 9} {
		var buf bytes.Buffer
		w, err := zlib.NewWriterLevel(&buf, level)
		if err != nil {
			t.Fatal(err)
		}
		w.Write(data)
		w.Close()
		zr, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		out, err := io.ReadAll(zr)
		if err != nil && err != io.EOF {
			t.Fatalf("level %d: %v", level, err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("level %d: mismatch", level)
		}
	}
}

func TestReaderSmallReads(t *testing.T) {
	// Matches crossing Read boundaries exercise the in-flight-copy path.
	data := bytes.Repeat([]byte("abcdefgh"), 5000)
	z := streamCompress(t, data, lzss.HWSpeedParams(), len(data))
	zr, err := NewReader(bytes.NewReader(z))
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	buf := make([]byte, 3)
	for {
		n, err := zr.Read(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out, data) {
		t.Fatal("small-read mismatch")
	}
}

func TestReaderDetectsCorruptTrailer(t *testing.T) {
	data := []byte("checksum this")
	z := streamCompress(t, data, lzss.HWSpeedParams(), 4)
	z[len(z)-1] ^= 0xFF
	zr, err := NewReader(bytes.NewReader(z))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(zr); err == nil {
		t.Fatal("corrupt adler not detected")
	}
}

func TestReaderRejectsBadHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte{0x79, 0x01, 0, 0})); err == nil {
		t.Fatal("bad FCHECK accepted")
	}
	if _, err := NewReader(bytes.NewReader([]byte{0x7F, 0x01, 0, 0})); err == nil {
		t.Fatal("bad method accepted")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestQuickStreamPipeline(t *testing.T) {
	p := lzss.Params{Window: 1024, HashBits: 10, MaxChain: 8, Nice: 32, InsertLimit: 8}
	f := func(data []byte, chunkSel uint8, mod uint8) bool {
		m := int(mod%6) + 2
		for i := range data {
			data[i] = byte(int(data[i]) % m)
		}
		chunk := int(chunkSel)%63 + 1
		var buf bytes.Buffer
		zw, err := NewWriter(&buf, p)
		if err != nil {
			return false
		}
		for i := 0; i < len(data); i += chunk {
			end := i + chunk
			if end > len(data) {
				end = len(data)
			}
			if _, err := zw.Write(data[i:end]); err != nil {
				return false
			}
		}
		if zw.Close() != nil {
			return false
		}
		// Decode through the streaming reader AND stdlib.
		zr, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		out, err := io.ReadAll(zr)
		if (err != nil && err != io.EOF) || !bytes.Equal(out, data) {
			return false
		}
		sr, err := zlib.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		sout, err := io.ReadAll(sr)
		return err == nil && bytes.Equal(sout, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func BenchmarkStreamingWriter(b *testing.B) {
	p := lzss.HWSpeedParams()
	benchCorpora(b, func(b *testing.B, data []byte) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			zw, err := NewWriter(io.Discard, p)
			if err != nil {
				b.Fatal(err)
			}
			zw.Write(data)
			if err := zw.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func TestWriterSyncFlush(t *testing.T) {
	var buf bytes.Buffer
	zw, err := NewWriter(&buf, lzss.HWSpeedParams())
	if err != nil {
		t.Fatal(err)
	}
	part1 := []byte("first installment of the stream; ")
	zw.Write(part1)
	if err := zw.Flush(); err != nil {
		t.Fatal(err)
	}
	// A reader over the flushed prefix must yield all of part1 even
	// though the stream is not closed (read exactly len(part1) bytes).
	zr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(part1))
	if _, err := io.ReadFull(zr, got); err != nil {
		t.Fatalf("read after flush: %v", err)
	}
	if !bytes.Equal(got, part1) {
		t.Fatalf("flushed prefix mismatch: %q", got)
	}
	// The stream continues and closes normally.
	part2 := []byte("second installment, after the flush")
	zw.Write(part2)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	full := append(append([]byte{}, part1...), part2...)
	out, err := ZlibDecompress(buf.Bytes())
	if err != nil || !bytes.Equal(out, full) {
		t.Fatalf("full round trip after flush failed: %v", err)
	}
	// Stdlib agrees.
	sr, err := zlib.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sout, err := io.ReadAll(sr)
	if err != nil || !bytes.Equal(sout, full) {
		t.Fatalf("stdlib after flush failed: %v", err)
	}
}

func TestWriterFlushAfterCloseRejected(t *testing.T) {
	var buf bytes.Buffer
	zw, _ := NewWriter(&buf, lzss.HWSpeedParams())
	zw.Close()
	if err := zw.Flush(); err == nil {
		t.Fatal("flush after close accepted")
	}
}

func TestWriterRepeatedFlushes(t *testing.T) {
	var buf bytes.Buffer
	zw, _ := NewWriter(&buf, lzss.HWSpeedParams())
	var want []byte
	for i := 0; i < 20; i++ {
		chunk := bytes.Repeat([]byte{byte('a' + i%4)}, 100+i)
		zw.Write(chunk)
		want = append(want, chunk...)
		if err := zw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := ZlibDecompress(buf.Bytes())
	if err != nil || !bytes.Equal(out, want) {
		t.Fatalf("repeated flushes broke the stream: %v", err)
	}
}
