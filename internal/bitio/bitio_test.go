package bitio

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteBitsLSBFirstPacking(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteBits(0b1, 1)   // bit 0
	w.WriteBits(0b01, 2)  // bits 1-2
	w.WriteBits(0b101, 3) // bits 3-5
	w.WriteBits(0b11, 2)  // bits 6-7
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// byte = 1 | 01<<1 | 101<<3 | 11<<6 = 0b11101011
	want := []byte{0b11101011}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("got %08b want %08b", buf.Bytes(), want)
	}
}

func TestWriteBitsMasksHighBits(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteBits(0xFFFFFFFF, 4)
	w.WriteBits(0, 4)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); len(got) != 1 || got[0] != 0x0F {
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
	var a, b bytes.Buffer
	wa, wb := NewWriter(&a), NewWriter(&b)
	wa.WriteBitsRev(0b1101, 4)
	wb.WriteBits(0b1011, 4)
	wa.Flush()
	wb.Flush()
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("rev mismatch: %x vs %x", a.Bytes(), b.Bytes())
	}
}

func TestAlignByteIdempotent(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteBits(0b1, 1)
	w.AlignByte()
	w.AlignByte()
	w.WriteBits(0xAB, 8)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := []byte{0x01, 0xAB}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("got %x want %x", buf.Bytes(), want)
	}
}

func TestWriteBytesAligns(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteBits(1, 3)
	w.WriteBytes([]byte{0xDE, 0xAD})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := []byte{0x01, 0xDE, 0xAD}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("got %x want %x", buf.Bytes(), want)
	}
}

func TestBitsWrittenCountsPadding(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
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
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, f := range fields {
			w.WriteBits(f.v, f.n)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		// The same fields through both sources: an io.Reader and, in
		// place, the byte slice.
		for _, r := range []*Reader{NewReaderBytes(buf.Bytes()), NewReader(&buf)} {
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
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteBits(0b101, 3)
	w.WriteBytes([]byte{1, 2, 3})
	w.WriteBits(0x7FFF, 15)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
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

// errWriter fails after n bytes.
type errWriter struct{ n int }

func (e *errWriter) Write(p []byte) (int, error) {
	if e.n <= 0 {
		return 0, io.ErrClosedPipe
	}
	if len(p) > e.n {
		p = p[:e.n]
	}
	e.n -= len(p)
	if e.n == 0 {
		return len(p), io.ErrClosedPipe
	}
	return len(p), nil
}

func TestWriterPropagatesError(t *testing.T) {
	w := NewWriter(&errWriter{n: 2})
	for i := 0; i < 10000; i++ {
		w.WriteBits(0xAA, 8)
	}
	if err := w.Flush(); err == nil {
		t.Fatal("expected error from underlying writer")
	}
	if w.Err() == nil {
		t.Fatal("Err() should be sticky")
	}
}

func TestWriterReset(t *testing.T) {
	var a, b bytes.Buffer
	w := NewWriter(&a)
	w.WriteBits(0x3, 5)
	w.Flush()
	w.Reset(&b)
	w.WriteBits(0xAB, 8)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := b.Bytes(); len(got) != 1 || got[0] != 0xAB {
		t.Fatalf("after reset got %x", got)
	}
	if w.BitsWritten() != 8 {
		t.Fatalf("BitsWritten after reset = %d", w.BitsWritten())
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
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, v := range vals {
			w.WriteBits(v, 32)
		}
		if w.Flush() != nil {
			return false
		}
		r := NewReader(&buf)
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
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteBits(0xFFFF, 0)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("zero-bit write produced output: %x", buf.Bytes())
	}
}

func BenchmarkWriterWriteBits(b *testing.B) {
	w := NewWriter(io.Discard)
	b.SetBytes(4)
	for i := 0; i < b.N; i++ {
		w.WriteBits(uint32(i), 32)
	}
	w.Flush()
}

func TestWriteReadBool(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	pattern := []bool{true, false, true, true, false, false, true, false, true}
	for _, b := range pattern {
		w.WriteBool(b)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
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
