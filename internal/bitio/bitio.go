// Package bitio implements bit-granular I/O in the LSB-first bit order
// used by the Deflate format (RFC 1951).
//
// Within each output byte, bits are filled starting at the least
// significant position. Multi-bit fields written with Writer.WriteBits
// are emitted least-significant-bit first, which matches how Deflate
// stores "extra bits" and block headers. Huffman codes in Deflate are
// the one exception: they are stored most-significant-bit first, so the
// Writer provides WriteBitsRev for them.
package bitio

import (
	"encoding/binary"
	"errors"
	"io"
	"math/bits"
)

// Writer packs bits into a caller-owned byte slice. Bits gather in a
// 64-bit accumulator and move to the slice 32 at a time, the shape of
// zlib's send_bits and compress/flate's huffmanBitWriter; the slice
// grows by append, so a write cannot fail.
type Writer struct {
	buf  []byte // dst's bytes, then the completed output
	acc  uint64 // pending bits, LSB-first
	nAcc uint   // number of valid bits in acc; below 32 between calls
}

// NewWriter returns a Writer appending to dst.
func NewWriter(dst []byte) *Writer { return &Writer{buf: dst} }

// Reset discards all pending state and retargets the Writer at dst.
func (bw *Writer) Reset(dst []byte) { *bw = Writer{buf: dst} }

// BitsWritten reports the bits the Writer holds: the buffer's bytes,
// dst's included, and the pending bits.
func (bw *Writer) BitsWritten() int64 { return 8*int64(len(bw.buf)) + int64(bw.nAcc) }

// WriteBits writes the n least-significant bits of v, LSB first.
// n must be in [0, 32].
func (bw *Writer) WriteBits(v uint32, n uint) {
	if n > 32 {
		panic("bitio: WriteBits count > 32")
	}
	bw.acc |= uint64(v&(1<<n-1)) << bw.nAcc
	bw.nAcc += n
	if bw.nAcc >= 32 {
		bw.buf = binary.LittleEndian.AppendUint32(bw.buf, uint32(bw.acc))
		bw.acc >>= 32
		bw.nAcc -= 32
	}
}

// WriteBitsRev writes the n least-significant bits of v with the most
// significant of those bits first. This is the storage order of Huffman
// codes in Deflate. n must be in [0, 32].
func (bw *Writer) WriteBitsRev(v uint32, n uint) {
	bw.WriteBits(Reverse(v, n), n)
}

// WriteBool writes a single bit.
func (bw *Writer) WriteBool(b bool) {
	if b {
		bw.WriteBits(1, 1)
	} else {
		bw.WriteBits(0, 1)
	}
}

// AlignByte pads with zero bits up to the next byte boundary. It is a
// no-op when already aligned.
func (bw *Writer) AlignByte() {
	if rem := bw.nAcc % 8; rem != 0 {
		bw.WriteBits(0, 8-rem)
	}
}

// WriteBytes byte-aligns the stream and then writes p verbatim.
func (bw *Writer) WriteBytes(p []byte) {
	bw.AlignByte()
	bw.settle()
	bw.buf = append(bw.buf, p...)
}

// Drain returns the buffer, with every whole byte written so far, and
// empties it; fewer than 8 bits stay pending. Later writes reuse the
// buffer's backing array, so a caller that keeps writing must consume
// the result first.
func (bw *Writer) Drain() []byte {
	bw.settle()
	b := bw.buf
	bw.buf = b[:0]
	return b
}

// State hands out the Writer's state for an encoder that keeps it in
// locals: the pending bits, their count, and the buffer. The encoder
// hands the state back with SetState before it uses the Writer again.
func (bw *Writer) State() (acc uint64, nAcc uint, buf []byte) {
	return bw.acc, bw.nAcc, bw.buf
}

// SetState takes back a state State handed out. buf must hold the bytes
// State returned followed by any the encoder appended, and acc and nAcc
// must keep the accumulator's invariant: fewer than 32 pending bits, and
// the bits of acc above them zero.
func (bw *Writer) SetState(acc uint64, nAcc uint, buf []byte) {
	bw.acc, bw.nAcc, bw.buf = acc, nAcc, buf
}

// settle moves the whole bytes of the accumulator to the buffer.
func (bw *Writer) settle() {
	for ; bw.nAcc >= 8; bw.nAcc -= 8 {
		bw.buf = append(bw.buf, byte(bw.acc))
		bw.acc >>= 8
	}
}

// Reverse returns the n low bits of v in reversed order.
func Reverse(v uint32, n uint) uint32 {
	if n == 0 {
		return 0
	}
	if n < 32 {
		v &= 1<<n - 1
	}
	return bits.Reverse32(v) >> (32 - n)
}

// ErrUnexpectedEOF is returned by Reader when the source runs out in the
// middle of a requested field.
var ErrUnexpectedEOF = errors.New("bitio: unexpected end of bit stream")

// Reader extracts bit fields, LSB-first, from a byte slice or an
// io.Reader. Bits wait in a 64-bit buffer that Refill tops up a whole
// word at a time. ReadBits serves fields from it; a table decoder uses
// Refill, Peek and Consume directly.
type Reader struct {
	// acc holds nAcc buffered bits, LSB-first. Bits above nAcc are zero
	// or already the stream's next bits: a word refill loads a partial
	// byte early and loads it again, unchanged, on the next refill.
	acc  uint64
	nAcc uint
	src  []byte    // input not yet moved into acc
	r    io.Reader // nil for a byte-slice source
	buf  []byte    // read buffer behind src for an io.Reader source
	err  error     // first error from r
	fed  int64     // bytes ever placed in src
}

// NewReader returns a Reader consuming from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r, buf: make([]byte, 4096)}
}

// NewReaderBytes returns a Reader over p. It reads p in place.
func NewReaderBytes(p []byte) *Reader {
	return &Reader{src: p, fed: int64(len(p))}
}

// Reset discards state and retargets the Reader at r.
func (br *Reader) Reset(r io.Reader) {
	buf := br.buf
	if buf == nil {
		buf = make([]byte, 4096)
	}
	*br = Reader{r: r, buf: buf}
}

// BitsRead reports the total number of bits consumed so far.
func (br *Reader) BitsRead() int64 {
	return (br.fed-int64(len(br.src)))*8 - int64(br.nAcc)
}

// Refill tops the bit buffer up to at least 56 bits, or to the end of
// the input.
func (br *Reader) Refill() {
	if len(br.src) >= 8 {
		br.acc |= binary.LittleEndian.Uint64(br.src) << br.nAcc
		br.src = br.src[(63-br.nAcc)>>3:]
		br.nAcc |= 56
		return
	}
	br.refillTail()
}

// refillTail is Refill within eight bytes of the end of src: byte by
// byte, reading more from an io.Reader source when src runs dry.
func (br *Reader) refillTail() {
	for br.nAcc < 56 {
		if len(br.src) == 0 && !br.more() {
			return
		}
		if len(br.src) >= 8 {
			br.Refill()
			return
		}
		br.acc |= uint64(br.src[0]) << br.nAcc
		br.src = br.src[1:]
		br.nAcc += 8
	}
}

// more reads the next bytes of an io.Reader source into the empty src
// and reports whether any arrived.
func (br *Reader) more() bool {
	if br.r == nil || br.err != nil {
		return false
	}
	n, err := br.r.Read(br.buf)
	br.src = br.buf[:n]
	br.fed += int64(n)
	if err != nil {
		br.err = err
	}
	return n > 0
}

// State hands out the Reader's state for a decoder that keeps it in
// locals: the bit buffer, the number of bits it holds, and the input
// not yet moved into it. The decoder hands the state back with
// SetState before it uses the Reader again.
func (br *Reader) State() (acc uint64, nAcc uint, src []byte) {
	return br.acc, br.nAcc, br.src
}

// SetState takes back a state State handed out. src must be a suffix of
// the input State returned, and acc and nAcc must keep the bit buffer's
// invariant: bits above nAcc are zero or the stream's next bits.
func (br *Reader) SetState(acc uint64, nAcc uint, src []byte) {
	br.acc, br.nAcc, br.src = acc, nAcc, src
}

// Peek returns the buffered bits, LSB-first. Past the end of the input
// the bits above Buffered are zero.
func (br *Reader) Peek() uint64 { return br.acc }

// Buffered reports how many bits Peek holds.
func (br *Reader) Buffered() uint { return br.nAcc }

// Consume discards the next n bits; n must not exceed Buffered.
func (br *Reader) Consume(n uint) {
	br.acc >>= n
	br.nAcc -= n
}

// Short is the error for a field longer than the bits that remain: the
// source's read error, or ErrUnexpectedEOF at a clean end of input.
func (br *Reader) Short() error {
	if br.err == nil || br.err == io.EOF {
		return ErrUnexpectedEOF
	}
	return br.err
}

// ReadBits reads n bits (n in [0,32]) and returns them LSB-first.
func (br *Reader) ReadBits(n uint) (uint32, error) {
	if n > 32 {
		panic("bitio: ReadBits count > 32")
	}
	if br.nAcc < n {
		br.Refill()
		if br.nAcc < n {
			return 0, br.Short()
		}
	}
	v := uint32(br.acc & (1<<n - 1))
	br.Consume(n)
	return v, nil
}

// ReadBool reads a single bit.
func (br *Reader) ReadBool() (bool, error) {
	v, err := br.ReadBits(1)
	return v == 1, err
}

// AlignByte discards bits up to the next byte boundary.
func (br *Reader) AlignByte() {
	br.Consume(br.nAcc % 8)
}

// ReadBytes byte-aligns the stream and reads exactly len(p) bytes into p.
func (br *Reader) ReadBytes(p []byte) error {
	br.AlignByte()
	for ; len(p) > 0 && br.nAcc > 0; p = p[1:] {
		p[0] = byte(br.acc)
		br.Consume(8)
	}
	if len(p) == 0 {
		return nil
	}
	// The bit buffer is empty: copy straight from the input, after
	// dropping any early-loaded bits of it.
	br.acc = 0
	for {
		n := copy(p, br.src)
		br.src, p = br.src[n:], p[n:]
		if len(p) == 0 {
			return nil
		}
		if !br.more() {
			return br.Short()
		}
	}
}
