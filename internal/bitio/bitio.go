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

// Writer accumulates bits and writes completed bytes to an underlying
// io.Writer. The zero value is not usable; call NewWriter.
type Writer struct {
	w    io.Writer
	acc  uint64 // pending bits, LSB-first
	nAcc uint   // number of valid bits in acc (always < 8 after flushAcc)
	buf  []byte // batch buffer to limit Write calls
	err  error
	// BitsWritten counts every bit accepted, including padding emitted
	// by AlignByte. It is exact even after an error.
	bitsWritten int64
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, buf: make([]byte, 0, 4096)}
}

// Reset discards all pending state and retargets the Writer at w.
func (bw *Writer) Reset(w io.Writer) {
	bw.w = w
	bw.acc = 0
	bw.nAcc = 0
	bw.buf = bw.buf[:0]
	bw.err = nil
	bw.bitsWritten = 0
}

// Err returns the first error encountered while writing, if any.
func (bw *Writer) Err() error { return bw.err }

// BitsWritten reports the total number of bits accepted so far.
func (bw *Writer) BitsWritten() int64 { return bw.bitsWritten }

// WriteBits writes the n least-significant bits of v, LSB first.
// n must be in [0, 32].
func (bw *Writer) WriteBits(v uint32, n uint) {
	if n > 32 {
		panic("bitio: WriteBits count > 32")
	}
	if bw.err != nil {
		return
	}
	if n < 32 {
		v &= (1 << n) - 1
	}
	bw.acc |= uint64(v) << bw.nAcc
	bw.nAcc += n
	bw.bitsWritten += int64(n)
	for bw.nAcc >= 8 {
		bw.buf = append(bw.buf, byte(bw.acc))
		bw.acc >>= 8
		bw.nAcc -= 8
		if len(bw.buf) >= cap(bw.buf) {
			bw.flushBuf()
		}
	}
}

// WriteCoded writes each byte of p as its prefix code: codes[b] holds
// the bit-reversed (LSB-first-ready) code for byte value b, lens[b] its
// length in bits (1..16). It is the batched form of per-symbol
// WriteBits for literal-heavy streams — the accumulator and output
// buffer live in locals across the whole run, and completed bytes drain
// four at a time, instead of paying the full per-call bookkeeping for
// every symbol.
func (bw *Writer) WriteCoded(p []byte, codes []uint16, lens []uint8) {
	if bw.err != nil {
		return
	}
	acc, nAcc, buf := bw.acc, bw.nAcc, bw.buf
	var written int64
	for _, b := range p {
		n := uint(lens[b])
		acc |= uint64(codes[b]) << nAcc
		nAcc += n
		written += int64(n)
		if nAcc >= 32 {
			buf = append(buf, byte(acc), byte(acc>>8), byte(acc>>16), byte(acc>>24))
			acc >>= 32
			nAcc -= 32
			if len(buf) >= cap(buf) {
				bw.buf = buf
				bw.flushBuf()
				buf = bw.buf
			}
		}
	}
	// Restore the Writer's invariant (fewer than 8 pending bits).
	for nAcc >= 8 {
		buf = append(buf, byte(acc))
		acc >>= 8
		nAcc -= 8
	}
	bw.acc, bw.nAcc, bw.buf = acc, nAcc, buf
	bw.bitsWritten += written
	if len(bw.buf) >= cap(bw.buf) {
		bw.flushBuf()
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
	if bw.err != nil {
		return
	}
	bw.bitsWritten += int64(len(p)) * 8
	bw.buf = append(bw.buf, p...)
	if len(bw.buf) >= cap(bw.buf) {
		bw.flushBuf()
	}
}

func (bw *Writer) flushBuf() {
	if bw.err != nil || len(bw.buf) == 0 {
		bw.buf = bw.buf[:0]
		return
	}
	_, err := bw.w.Write(bw.buf)
	if err != nil {
		bw.err = err
	}
	bw.buf = bw.buf[:0]
}

// Flush byte-aligns the stream (padding with zeros) and pushes all
// buffered bytes to the underlying writer. It returns the first error
// encountered by the Writer.
func (bw *Writer) Flush() error {
	bw.AlignByte()
	bw.flushBuf()
	return bw.err
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
