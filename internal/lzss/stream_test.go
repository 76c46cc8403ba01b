package lzss

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"lzssfpga/internal/token"
	"lzssfpga/internal/workload"
)

// streamAll feeds data through a StreamCompressor in chunk-sized
// writes and returns the commands and the compressor's final Stats.
func streamAll(t *testing.T, data []byte, p Params, chunk int) ([]token.Command, Stats) {
	t.Helper()
	sc, err := NewStreamCompressor(p)
	if err != nil {
		t.Fatal(err)
	}
	var cmds []token.Command
	for i := 0; i < len(data); i += chunk {
		end := i + chunk
		if end > len(data) {
			end = len(data)
		}
		cmds = append(cmds, sc.Write(data[i:end])...)
	}
	cmds = append(cmds, sc.Close()...)
	return cmds, sc.Stats()
}

func TestStreamMatchesWholeBuffer(t *testing.T) {
	// The streaming compressor must emit the identical command stream
	// as the one-shot Compress, regardless of write chunking.
	p := testParams()
	rng := rand.New(rand.NewSource(14))
	data := make([]byte, 100_000)
	for i := range data {
		data[i] = byte(rng.Intn(12)) // compressible
	}
	whole, wholeStats, err := Compress(data, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 7, 100, 4096, 65536, len(data)} {
		got, stats := streamAll(t, data, p, chunk)
		if !token.Equal(got, whole) {
			i := token.FirstDiff(got, whole)
			t.Fatalf("chunk %d: diverges from whole-buffer at cmd %d", chunk, i)
		}
		if stats != *wholeStats {
			t.Fatalf("chunk %d: stats diverge from whole-buffer:\n got %+v\nwant %+v", chunk, stats, *wholeStats)
		}
	}
	// The paper's speed design point on the evaluation corpora, at the
	// 64 KiB writes the streaming zlib writer sees in practice.
	for name, data := range map[string][]byte{
		"wiki":   workload.Wiki(300_000, 3),
		"can":    workload.CAN(300_000, 3),
		"random": workload.Random(300_000, 3),
	} {
		whole, wholeStats, err := Compress(data, HWSpeedParams())
		if err != nil {
			t.Fatal(err)
		}
		got, stats := streamAll(t, data, HWSpeedParams(), 64<<10)
		if !token.Equal(got, whole) {
			t.Fatalf("%s: diverges from whole-buffer at cmd %d", name, token.FirstDiff(got, whole))
		}
		if stats != *wholeStats {
			t.Fatalf("%s: stats diverge from whole-buffer:\n got %+v\nwant %+v", name, stats, *wholeStats)
		}
	}
}

func TestStreamSlidesWindow(t *testing.T) {
	// Long input through a small window: the buffer must slide (stay
	// bounded) and the output must still match whole-buffer compression.
	p := Params{Window: 1024, HashBits: 10, MaxChain: 8, Nice: 32, InsertLimit: 8}
	rng := rand.New(rand.NewSource(15))
	data := make([]byte, 400_000)
	for i := range data {
		data[i] = byte(rng.Intn(7))
	}
	sc, err := NewStreamCompressor(p)
	if err != nil {
		t.Fatal(err)
	}
	var cmds []token.Command
	for i := 0; i < len(data); i += 1000 {
		cmds = append(cmds, sc.Write(data[i:i+1000])...)
		if got := len(sc.buf); got > 4*p.Window+streamLookahead+1000 {
			t.Fatalf("buffer grew to %d — sliding broken", got)
		}
	}
	cmds = append(cmds, sc.Close()...)
	whole, _, err := Compress(data, p)
	if err != nil {
		t.Fatal(err)
	}
	if !token.Equal(cmds, whole) {
		t.Fatalf("slid stream diverges at cmd %d", token.FirstDiff(cmds, whole))
	}
}

// TestStreamLargeWriteBounded: one Write many windows long is matched
// in pieces, so the buffer stays bounded by the piece size rather than
// the write, and the output still equals whole-buffer compression.
func TestStreamLargeWriteBounded(t *testing.T) {
	p := Params{Window: 1024, HashBits: 10, MaxChain: 8, Nice: 32, InsertLimit: 8}
	data := workload.Wiki(3*streamPiece+12345, 4)
	whole, wholeStats, err := Compress(data, p)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewStreamCompressor(p)
	if err != nil {
		t.Fatal(err)
	}
	cmds := append(sc.Write(data), sc.Close()...)
	if !token.Equal(cmds, whole) {
		t.Fatalf("diverges from whole-buffer at cmd %d", token.FirstDiff(cmds, whole))
	}
	if stats := sc.Stats(); stats != *wholeStats {
		t.Fatalf("stats diverge from whole-buffer:\n got %+v\nwant %+v", stats, *wholeStats)
	}
	if limit := 2 * (3*p.Window + streamLookahead + streamPiece); cap(sc.buf) > limit {
		t.Fatalf("buffer capacity %d for a %d-byte write, want <= %d", cap(sc.buf), len(data), limit)
	}
}

func TestStreamRoundTrip(t *testing.T) {
	p := testParams()
	data := []byte("stream me stream me stream me until the very end!")
	cmds, _ := streamAll(t, data, p, 5)
	out, err := Decompress(cmds)
	if err != nil || !bytes.Equal(out, data) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestStreamEmptyAndTiny(t *testing.T) {
	p := testParams()
	for _, data := range [][]byte{{}, {1}, {1, 2}, {1, 2, 3}} {
		cmds, _ := streamAll(t, data, p, 1)
		out, err := Decompress(cmds)
		if err != nil || !bytes.Equal(out, data) {
			t.Fatalf("tiny %v: round trip failed", data)
		}
	}
}

func TestStreamCloseIdempotent(t *testing.T) {
	sc, err := NewStreamCompressor(testParams())
	if err != nil {
		t.Fatal(err)
	}
	sc.Write([]byte("abc"))
	first := sc.Close()
	if len(first) == 0 {
		t.Fatal("Close produced nothing")
	}
	if again := sc.Close(); again != nil {
		t.Fatal("second Close must return nil")
	}
}

func TestStreamWriteAfterClosePanics(t *testing.T) {
	sc, _ := NewStreamCompressor(testParams())
	sc.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Write after Close must panic")
		}
	}()
	sc.Write([]byte("x"))
}

func TestStreamStats(t *testing.T) {
	sc, _ := NewStreamCompressor(testParams())
	data := bytes.Repeat([]byte("ab"), 1000)
	sc.Write(data)
	sc.Close()
	s := sc.Stats()
	if s.InputBytes != int64(len(data)) {
		t.Fatalf("InputBytes %d", s.InputBytes)
	}
	if s.Matches == 0 {
		t.Fatal("periodic input should match")
	}
}

func TestQuickStreamEquivalence(t *testing.T) {
	p := Params{Window: 1024, HashBits: 9, MaxChain: 16, Nice: 64, InsertLimit: 8}
	f := func(data []byte, chunkSel uint8, mod uint8) bool {
		m := int(mod%8) + 2
		for i := range data {
			data[i] = byte(int(data[i]) % m)
		}
		chunk := int(chunkSel)%97 + 1
		whole, _, err := Compress(data, p)
		if err != nil {
			return false
		}
		sc, err := NewStreamCompressor(p)
		if err != nil {
			return false
		}
		var cmds []token.Command
		for i := 0; i < len(data); i += chunk {
			end := i + chunk
			if end > len(data) {
				end = len(data)
			}
			cmds = append(cmds, sc.Write(data[i:end])...)
		}
		cmds = append(cmds, sc.Close()...)
		return token.Equal(cmds, whole)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkStreamCompressor(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(rng.Intn(10))
	}
	p := HWSpeedParams()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc, err := NewStreamCompressor(p)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < len(data); j += 65536 {
			sc.Write(data[j : j+65536])
		}
		sc.Close()
	}
}

func TestStreamFlushMidStream(t *testing.T) {
	p := testParams()
	sc, err := NewStreamCompressor(p)
	if err != nil {
		t.Fatal(err)
	}
	part1 := bytes.Repeat([]byte("flush me "), 50)
	part2 := bytes.Repeat([]byte("then continue "), 50)
	var cmds []token.Command
	cmds = append(cmds, sc.Write(part1)...)
	cmds = append(cmds, sc.Flush()...)
	// After a flush every input byte so far is decided.
	if got := token.StreamLen(cmds); got != len(part1) {
		t.Fatalf("flush left %d of %d bytes undecided", len(part1)-got, len(part1))
	}
	cmds = append(cmds, sc.Write(part2)...)
	cmds = append(cmds, sc.Close()...)
	out, err := Decompress(cmds)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte{}, part1...), part2...)
	if !bytes.Equal(out, want) {
		t.Fatal("flush broke the stream")
	}
	// History survives the flush: part2's repeats of part1 content would
	// match across the boundary... at minimum the stream stays valid and
	// matches exist after the flush.
	matchesAfter := false
	seen := 0
	for _, c := range cmds {
		if seen > len(part1) && c.K == token.Match {
			matchesAfter = true
			break
		}
		seen += c.SrcLen()
	}
	if !matchesAfter {
		t.Fatal("no matches after flush — history lost")
	}
}

func TestStreamFlushAfterClose(t *testing.T) {
	sc, _ := NewStreamCompressor(testParams())
	sc.Close()
	if got := sc.Flush(); got != nil {
		t.Fatal("flush after close must return nil")
	}
}
