package bitio

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// flush byte-aligns w and returns everything it wrote.
func flush(w *Writer) []byte {
	w.AlignByte()
	return w.Drain()
}

func TestWriteBitsLSBFirstPacking(t *testing.T) {
	w := NewWriter(nil)
	w.WriteBits(0b1, 1)   // bit 0
	w.WriteBits(0b01, 2)  // bits 1-2
	w.WriteBits(0b101, 3) // bits 3-5
	w.WriteBits(0b11, 2)  // bits 6-7
	buf := flush(w)
	// byte = 1 | 01<<1 | 101<<3 | 11<<6 = 0b11101011
	want := []byte{0b11101011}
	if !bytes.Equal(buf, want) {
		t.Fatalf("got %08b want %08b", buf, want)
	}
}

func TestWriteBitsMasksHighBits(t *testing.T) {
	w := NewWriter(nil)
	w.WriteBits(0xFFFFFFFF, 4)
	w.WriteBits(0, 4)
	buf := flush(w)
	if got := buf; len(got) != 1 || got[0] != 0x0F {
		t.Fatalf("got %x want 0f", got)
	}
}

func TestReverse(t *testing.T) {
	cases := []struct {
		v    uint32
		n    uint
		want uint32
	}{
		{0b1, 1, 0b1},
		{0b10, 2, 0b01},
		{0b110, 3, 0b011},
		{0x1, 8, 0x80},
		{0b1011, 4, 0b1101},
		{0, 0, 0},
	}
	for _, c := range cases {
		if got := Reverse(c.v, c.n); got != c.want {
			t.Errorf("Reverse(%b,%d) = %b, want %b", c.v, c.n, got, c.want)
		}
	}
}

func TestReverseInvolution(t *testing.T) {
	f := func(v uint32, n uint8) bool {
		nn := uint(n % 33)
		masked := v
		if nn < 32 {
			masked &= (1 << nn) - 1
		}
		return Reverse(Reverse(v, nn), nn) == masked
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWriteBitsRevMatchesManualReverse(t *testing.T) {
	wa, wb := NewWriter(nil), NewWriter(nil)
	wa.WriteBitsRev(0b1101, 4)
	wb.WriteBits(0b1011, 4)
	a, b := flush(wa), flush(wb)
	if !bytes.Equal(a, b) {
		t.Fatalf("rev mismatch: %x vs %x", a, b)
	}
}

func TestAlignByteIdempotent(t *testing.T) {
	w := NewWriter(nil)
	w.WriteBits(0b1, 1)
	w.AlignByte()
	w.AlignByte()
	w.WriteBits(0xAB, 8)
	buf := flush(w)
	want := []byte{0x01, 0xAB}
	if !bytes.Equal(buf, want) {
		t.Fatalf("got %x want %x", buf, want)
	}
}

func TestWriteBytesAligns(t *testing.T) {
	w := NewWriter(nil)
	w.WriteBits(1, 3)
	w.WriteBytes([]byte{0xDE, 0xAD})
	buf := flush(w)
	want := []byte{0x01, 0xDE, 0xAD}
	if !bytes.Equal(buf, want) {
		t.Fatalf("got %x want %x", buf, want)
	}
}

func TestBitsWrittenCountsPadding(t *testing.T) {
	w := NewWriter(nil)
	w.WriteBits(1, 3)
	w.AlignByte()
	if got := w.BitsWritten(); got != 8 {
		t.Fatalf("BitsWritten = %d, want 8", got)
	}
}

func TestRoundTripRandomFields(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type field struct {
		v uint32
		n uint
	}
	for trial := 0; trial < 200; trial++ {
		var fields []field
		for i := 0; i < 100; i++ {
			n := uint(rng.Intn(33))
			v := rng.Uint32()
			if n < 32 {
				v &= (1 << n) - 1
			}
			fields = append(fields, field{v, n})
		}
		w := NewWriter(nil)
		for _, f := range fields {
			w.WriteBits(f.v, f.n)
		}
		buf := flush(w)
		// The same fields through both sources: an io.Reader and, in
		// place, the byte slice.
		for _, r := range []*Reader{NewReaderBytes(buf), NewReader(bytes.NewReader(buf))} {
			for i, f := range fields {
				got, err := r.ReadBits(f.n)
				if err != nil {
					t.Fatalf("trial %d field %d: %v", trial, i, err)
				}
				if got != f.v {
					t.Fatalf("trial %d field %d: got %x want %x (n=%d)", trial, i, got, f.v, f.n)
				}
			}
		}
	}
}

func TestRoundTripWithAlignment(t *testing.T) {
	w := NewWriter(nil)
	w.WriteBits(0b101, 3)
	w.WriteBytes([]byte{1, 2, 3})
	w.WriteBits(0x7FFF, 15)
	buf := flush(w)
	r := NewReader(bytes.NewReader(buf))
	if v, _ := r.ReadBits(3); v != 0b101 {
		t.Fatalf("field 1: %b", v)
	}
	p := make([]byte, 3)
	if err := r.ReadBytes(p); err != nil || !bytes.Equal(p, []byte{1, 2, 3}) {
		t.Fatalf("bytes: %x err %v", p, err)
	}
	if v, _ := r.ReadBits(15); v != 0x7FFF {
		t.Fatalf("field 2: %x", v)
	}
}

func TestReaderUnexpectedEOF(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{0xFF}))
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBits(1); !errors.Is(err, ErrUnexpectedEOF) {
		t.Fatalf("want ErrUnexpectedEOF, got %v", err)
	}
}

func TestReaderPartialThenEOF(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{0x0F}))
	if v, err := r.ReadBits(4); err != nil || v != 0xF {
		t.Fatalf("got %x err %v", v, err)
	}
	if _, err := r.ReadBits(8); !errors.Is(err, ErrUnexpectedEOF) {
		t.Fatalf("want ErrUnexpectedEOF, got %v", err)
	}
}

func TestWriterReset(t *testing.T) {
	w := NewWriter(nil)
	w.WriteBits(0x3, 5)
	flush(w)
	w.Reset(nil)
	w.WriteBits(0xAB, 8)
	if w.BitsWritten() != 8 {
		t.Fatalf("BitsWritten after reset = %d", w.BitsWritten())
	}
	if got := flush(w); len(got) != 1 || got[0] != 0xAB {
		t.Fatalf("after reset got %x", got)
	}
}

func TestReaderBitsRead(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{0xFF, 0xFF}))
	r.ReadBits(3)
	r.AlignByte()
	r.ReadBits(8)
	if got := r.BitsRead(); got != 16 {
		t.Fatalf("BitsRead = %d, want 16", got)
	}
}

func TestQuickRoundTrip32(t *testing.T) {
	f := func(vals []uint32) bool {
		w := NewWriter(nil)
		for _, v := range vals {
			w.WriteBits(v, 32)
		}
		r := NewReader(bytes.NewReader(flush(w)))
		for _, v := range vals {
			got, err := r.ReadBits(32)
			if err != nil || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWriteZeroBitsNoOp(t *testing.T) {
	w := NewWriter(nil)
	w.WriteBits(0xFFFF, 0)
	buf := flush(w)
	if len(buf) != 0 {
		t.Fatalf("zero-bit write produced output: %x", buf)
	}
}

func BenchmarkWriterWriteBits(b *testing.B) {
	w := NewWriter(make([]byte, 0, 4096))
	b.SetBytes(4)
	for i := 0; i < b.N; i++ {
		w.WriteBits(uint32(i), 32)
		if i%1024 == 1023 {
			w.Drain()
		}
	}
}

func TestWriteReadBool(t *testing.T) {
	w := NewWriter(nil)
	pattern := []bool{true, false, true, true, false, false, true, false, true}
	for _, b := range pattern {
		w.WriteBool(b)
	}
	buf := flush(w)
	r := NewReader(bytes.NewReader(buf))
	for i, want := range pattern {
		got, err := r.ReadBool()
		if err != nil || got != want {
			t.Fatalf("bit %d: got %v err %v", i, got, err)
		}
	}
}

func TestReaderReset(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte{0xAA}))
	r.ReadBits(4)
	r.Reset(bytes.NewReader([]byte{0x0F}))
	if v, err := r.ReadBits(8); err != nil || v != 0x0F {
		t.Fatalf("after reset: %x %v", v, err)
	}
	if r.BitsRead() != 8 {
		t.Fatalf("BitsRead after reset = %d", r.BitsRead())
	}
}

// TestWriterStateRoundTrip hands a Writer's state to an encoder that
// stores whole words itself, then back: the stream must be the one
// WriteBits alone writes, at every pending-bit count.
func TestWriterStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for pending := uint(0); pending < 32; pending++ {
		pre := rng.Uint32() & (1<<pending - 1)
		words := []uint32{rng.Uint32(), rng.Uint32(), rng.Uint32()}
		want := NewWriter([]byte{0xAA})
		want.WriteBits(pre, pending)
		for _, v := range words {
			want.WriteBits(v, 32)
		}
		want.WriteBits(0x5, 3)

		w := NewWriter([]byte{0xAA})
		w.WriteBits(pre, pending)
		acc, nAcc, buf := w.State()
		if nAcc != pending || acc != uint64(pre) || !bytes.Equal(buf, []byte{0xAA}) {
			t.Fatalf("pending %d: State() = %#x, %d, %x", pending, acc, nAcc, buf)
		}
		for _, v := range words {
			acc |= uint64(v) << nAcc
			buf = append(buf, byte(acc), byte(acc>>8), byte(acc>>16), byte(acc>>24))
			acc >>= 32
		}
		w.SetState(acc, nAcc, buf)
		if got, wantBits := w.BitsWritten(), want.BitsWritten(); got != wantBits-3 {
			t.Fatalf("pending %d: BitsWritten after SetState = %d, want %d", pending, got, wantBits-3)
		}
		w.WriteBits(0x5, 3)
		if got, wantBytes := flush(w), flush(want); !bytes.Equal(got, wantBytes) {
			t.Fatalf("pending %d: got %x, want %x", pending, got, wantBytes)
		}
	}
}
