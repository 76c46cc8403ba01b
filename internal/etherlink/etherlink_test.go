package etherlink

import (
	"bytes"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCRC32MatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 64, 1500, 65536} {
		data := make([]byte, n)
		rng.Read(data)
		if got, want := CRC32(data), crc32.ChecksumIEEE(data); got != want {
			t.Fatalf("n=%d: crc %08x, want %08x", n, got, want)
		}
	}
}

func TestCRC32UpdateIncremental(t *testing.T) {
	data := []byte("incremental crc over ethernet frame payloads")
	c := uint32(0)
	for i := 0; i < len(data); i += 5 {
		end := i + 5
		if end > len(data) {
			end = len(data)
		}
		c = CRC32Update(c, data[i:end])
	}
	if c != crc32.ChecksumIEEE(data) {
		t.Fatal("incremental crc differs")
	}
}

func TestQuickCRC32(t *testing.T) {
	f := func(data []byte) bool {
		return CRC32(data) == crc32.ChecksumIEEE(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func mustSegment(t *testing.T, data []byte) []Frame {
	t.Helper()
	frames, err := Segment(data)
	if err != nil {
		t.Fatalf("Segment: %v", err)
	}
	return frames
}

func TestSegmentReassemble(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, MaxChunk - 1, MaxChunk, MaxChunk + 1, 10 * MaxChunk, 123457} {
		data := make([]byte, n)
		rng.Read(data)
		frames := mustSegment(t, data)
		out, err := Reassemble(frames, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("n=%d: reassembly mismatch", n)
		}
	}
}

func TestReassembleOutOfOrder(t *testing.T) {
	data := make([]byte, 5*MaxChunk)
	rand.New(rand.NewSource(3)).Read(data)
	frames := mustSegment(t, data)
	// Shuffle.
	rng := rand.New(rand.NewSource(4))
	rng.Shuffle(len(frames), func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })
	out, err := Reassemble(frames, len(data))
	if err != nil || !bytes.Equal(out, data) {
		t.Fatalf("out-of-order reassembly failed: %v", err)
	}
}

func TestReassembleDetectsCorruption(t *testing.T) {
	data := make([]byte, 3*MaxChunk)
	rand.New(rand.NewSource(5)).Read(data)
	frames := mustSegment(t, data)
	frames[1].Payload = append([]byte(nil), frames[1].Payload...)
	frames[1].Payload[10] ^= 1
	if _, err := Reassemble(frames, len(data)); err == nil {
		t.Fatal("corrupt payload not detected by FCS")
	}
}

func TestReassembleDetectsLossAndDuplicates(t *testing.T) {
	data := make([]byte, 4*MaxChunk)
	rand.New(rand.NewSource(6)).Read(data)
	frames := mustSegment(t, data)
	if _, err := Reassemble(frames[:3], len(data)); err == nil {
		t.Fatal("missing frame not detected")
	}
	dup := append(frames[:0:0], frames...)
	dup[3] = dup[2]
	if _, err := Reassemble(dup, len(data)); err == nil {
		t.Fatal("duplicate frame not detected")
	}
}

func TestFrameSizing(t *testing.T) {
	frames := mustSegment(t, make([]byte, 2*MaxChunk))
	for _, f := range frames {
		if len(f.Payload) > MaxChunk {
			t.Fatalf("payload %d exceeds MTU budget", len(f.Payload))
		}
		if f.WireBytes() <= len(f.Payload) {
			t.Fatal("wire overhead missing")
		}
	}
}

func TestLinkTiming(t *testing.T) {
	l := ML507Link()
	data := make([]byte, 10<<20)
	s := l.TransferSeconds(data)
	// 10 MiB over gigabit with framing: ~0.086-0.095 s.
	if s < 0.080 || s > 0.12 {
		t.Fatalf("10 MiB at 1 GbE modeled as %.3f s", s)
	}
	good := l.EffectiveMBps(data)
	if good < 100 || good >= 125 {
		t.Fatalf("goodput %.1f MB/s outside (100, 125)", good)
	}
	if (Link{}).TransferSeconds(data) != 0 {
		t.Fatal("zero-rate link should report 0")
	}
}

func TestQuickSegmentRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		frames, err := Segment(data)
		if err != nil {
			return false
		}
		out, err := Reassemble(frames, len(data))
		return err == nil && bytes.Equal(out, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSegmentEmptyInputRoundTrip(t *testing.T) {
	// Zero bytes segment to exactly one empty frame, and that frame is
	// the only shape Reassemble accepts for a 0-byte block.
	frames := mustSegment(t, nil)
	if len(frames) != 1 || len(frames[0].Payload) != 0 || frames[0].Seq != 0 {
		t.Fatalf("Segment(nil) = %d frames, want one empty seq-0 frame", len(frames))
	}
	out, err := Reassemble(frames, 0)
	if err != nil {
		t.Fatalf("Reassemble empty: %v", err)
	}
	if out == nil || len(out) != 0 {
		t.Fatalf("Reassemble empty = %v, want non-nil empty slice", out)
	}
	if _, err := Reassemble(nil, 0); err == nil {
		t.Fatal("Reassemble(nil, 0) accepted a transfer with no frames")
	}
	if _, err := Reassemble(append(frames, frames[0]), 0); err == nil {
		t.Fatal("Reassemble accepted two frames for a 0-byte block")
	}
	bad := Frame{Seq: 1}
	bad.FCS = bad.computeFCS()
	if _, err := Reassemble([]Frame{bad}, 0); err == nil {
		t.Fatal("Reassemble accepted a non-zero sequence for a 0-byte block")
	}
}

func TestSegmentRejectsSequenceOverflow(t *testing.T) {
	if ^uint(0) == uint(math.MaxUint32) {
		t.Skip("32-bit platform cannot size an overflowing block")
	}
	// A block that needs 2^32 frames is 6 TB, so the boundary is checked
	// on the frame count Segment takes from the block's length.
	limit := int(math.MaxUint32) * MaxChunk
	if n, err := frameCount(limit); err != nil || n != math.MaxUint32 {
		t.Fatalf("%d bytes: %d frames, %v; want %d frames", limit, n, err, uint32(math.MaxUint32))
	}
	if n, err := frameCount(limit + 1); err == nil {
		t.Fatalf("%d bytes: %d frames accepted past the sequence space", limit+1, n)
	}
	frames := mustSegment(t, make([]byte, 3*MaxChunk+1))
	if len(frames) != 4 {
		t.Fatalf("got %d frames, want 4", len(frames))
	}
}
