package deflate

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"lzssfpga/internal/bitio"
	"lzssfpga/internal/checksum"
	"lzssfpga/internal/lzss"
	"lzssfpga/internal/token"
)

// The block writer turns LZSS command streams into Deflate blocks. Its
// fixed path mirrors the paper's pipelined fixed-table Huffman stage:
// because the table is fixed, encoding is a pure per-command lookup and
// the stage never stalls the LZSS FSM. Every encoder entry point is a
// caller that names the block kinds it allows; a block that may choose
// is counted once, priced in every allowed kind from that count, and
// written in the cheapest.

// blockKind is one Deflate block type, and a set of them is the kinds
// a caller allows.
type blockKind uint8

const (
	blockStored blockKind = 1 << iota
	blockFixed
	blockDynamic

	fixedOrDynamic = blockFixed | blockDynamic
	anyBlock       = blockStored | blockFixed | blockDynamic
)

// emitCode is one emit-table entry: the bits to write, LSB-first, and
// how many.
type emitCode struct {
	bits uint32
	n    uint32
}

// emitTable is a Huffman code laid out for the emit loop. Codes are
// pre-reversed into Deflate storage order, and each length entry holds
// its length code with the extra bits packed above it, so a literal
// costs one write and a match two.
type emitTable struct {
	lit  [endOfBlock + 1]emitCode                      // literal bytes, then end-of-block
	len  [token.MaxMatch - token.MinMatch + 1]emitCode // lengths 3..258
	dist [numDistSym]emitCode
}

// fill lays out the canonical code with literal/length code lengths
// litLens and distance code lengths distLens.
func (t *emitTable) fill(litLens, distLens []uint8) {
	var scratch [numLitLenSym]uint16
	codes := canonicalCodesInto(scratch[:0], litLens)
	reverseCodesInPlace(codes, litLens)
	for s := range t.lit {
		t.lit[s] = emitCode{uint32(codes[s]), uint32(litLens[s])}
	}
	for i := range t.len {
		lc := lengthToCode[i]
		n := uint32(litLens[lc.sym])
		t.len[i] = emitCode{uint32(codes[lc.sym]) | uint32(i+token.MinMatch-int(lc.base))<<n, n + uint32(lc.extra)}
	}
	codes = canonicalCodesInto(scratch[:0], distLens)
	reverseCodesInPlace(codes, distLens)
	for s := range t.dist {
		t.dist[s] = emitCode{uint32(codes[s]), uint32(distLens[s])}
	}
}

// inRange reports whether c is a match the Deflate tables can encode:
// length 3..258, distance 1..32768. It is the inline form of
// c.Validate() for a command that is not a literal.
func inRange(c token.Command) bool {
	return c.K == token.Match && uint(c.Length-token.MinMatch) <= token.MaxMatch-token.MinMatch &&
		uint(c.Distance-1) < token.MaxDistance
}

// emit writes cmds and the end-of-block symbol in code t. It is the one
// loop that writes Huffman symbols; a command out of the tables' range
// stops it with c.Validate()'s error.
//
// The loop keeps the Writer's accumulator, its bit count and the output
// in locals (zlib's send_bits on a 64-bit bi_buf) and flushes 32 bits
// whenever 32 or more are pending, after a literal, after a length entry
// and after a distance entry. Fewer than 32 bits are pending before
// each entry, a length entry is at most 15+5 bits and a distance entry
// at most 15+13, so the accumulator never holds more than 31+28 = 59
// bits. The shift counts are masked to the word size they never reach
// (compress/flate's writeCode does the same), which spares the
// compiler's test for an oversized shift. The state goes back to the
// Writer on every exit.
func emit(bw *bitio.Writer, t *emitTable, cmds []token.Command) error {
	acc, nAcc, buf := bw.State()
	for _, c := range cmds {
		if c.K == token.Literal {
			e := t.lit[c.Lit]
			acc |= uint64(e.bits) << (nAcc & 63)
			if nAcc += uint(e.n); nAcc >= 32 {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(acc))
				acc >>= 32
				nAcc -= 32
			}
			continue
		}
		if !inRange(c) {
			bw.SetState(acc, nAcc, buf)
			return c.Validate()
		}
		e := t.len[c.Length-token.MinMatch]
		acc |= uint64(e.bits) << (nAcc & 63)
		if nAcc += uint(e.n); nAcc >= 32 {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(acc))
			acc >>= 32
			nAcc -= 32
		}
		dc := distCodeFor(c.Distance)
		e = t.dist[dc.sym]
		acc |= uint64(e.bits|uint32(c.Distance-int(dc.base))<<(e.n&31)) << (nAcc & 63)
		if nAcc += uint(e.n) + uint(dc.extra); nAcc >= 32 {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(acc))
			acc >>= 32
			nAcc -= 32
		}
	}
	bw.SetState(acc, nAcc, buf)
	e := t.lit[endOfBlock]
	bw.WriteBits(e.bits, uint(e.n))
	return nil
}

// histogram holds the literal/length and distance symbol frequencies of
// one block, end-of-block included.
type histogram struct {
	lit  [numLitLenSym]int64
	dist [numDistSym]int64
}

// count tallies cmds: the one pass a choosing caller makes over a
// block. A command out of the tables' range stops it with
// c.Validate()'s error.
func (h *histogram) count(cmds []token.Command) error {
	*h = histogram{}
	for _, c := range cmds {
		if c.K == token.Literal {
			h.lit[c.Lit]++
			continue
		}
		if !inRange(c) {
			return c.Validate()
		}
		h.lit[lenCodeFor(c.Length).sym]++
		h.dist[distCodeFor(c.Distance).sym]++
	}
	h.lit[endOfBlock]++
	return nil
}

// bits returns the size of the counted symbols, extra bits included, in
// the code with literal/length code lengths litLens and distance code
// lengths distLens.
func (h *histogram) bits(litLens, distLens []uint8) int {
	n := 0
	for s, f := range h.lit {
		n += int(f) * int(litLens[s])
	}
	for i, extra := range lengthExtra {
		n += int(h.lit[endOfBlock+1+i]) * int(extra)
	}
	for s, f := range h.dist {
		n += int(f) * int(distLens[s]+distExtra[s])
	}
	return n
}

// blockWriter writes Deflate blocks into one bit stream.
type blockWriter struct {
	bw bitio.Writer
	// s is the scratch of a block that chooses its kind, kept from block
	// to block; a fixed-only writer never makes it.
	s *blockScratch
}

// blockScratch is a block's histogram, its dynamic plan and the emit
// table filled from that plan.
type blockScratch struct {
	h    histogram
	plan dynamicPlan
	dyn  emitTable
}

// choose counts cmds, prices each kind in kinds and returns the cheapest
// with its size in bits, the 3-bit block header included; n is the
// number of bytes cmds expand to. A kind displaces an earlier one of
// fixed, dynamic, stored only when strictly smaller.
func (w *blockWriter) choose(cmds []token.Command, n int, kinds blockKind) (blockKind, int, error) {
	if w.s == nil {
		w.s = new(blockScratch)
	}
	s := w.s
	if err := s.h.count(cmds); err != nil {
		return 0, 0, err
	}
	kind, size := blockKind(0), math.MaxInt
	if kinds&blockFixed != 0 {
		kind, size = blockFixed, 3+s.h.bits(fixedLitLens, fixedDistLens)
	}
	if kinds&blockDynamic != 0 {
		s.plan.plan(&s.h)
		if d := 3 + s.plan.headerBits() + s.h.bits(s.plan.litLens[:], s.plan.distLens[:]); d < size {
			kind, size = blockDynamic, d
		}
	}
	if kinds&blockStored != 0 {
		// 5 bytes of header per 65535-byte chunk, byte-aligned.
		if d := 8 * (n + 5*(n/65535+1)); d < size {
			kind, size = blockStored, d
		}
	}
	return kind, size, nil
}

// writeBlock writes cmds as one block of the cheapest kind in kinds. src
// is the bytes cmds expand to; only a caller allowing stored blocks
// needs it. A fixed-only block is written without a count.
func (w *blockWriter) writeBlock(cmds []token.Command, src []byte, kinds blockKind, final bool) error {
	kind := blockFixed
	if kinds != blockFixed {
		var err error
		if kind, _, err = w.choose(cmds, len(src), kinds); err != nil {
			return err
		}
	}
	t := &fixedCode
	switch kind {
	case blockStored:
		w.writeStored(src, final)
		return nil
	case blockDynamic:
		w.bw.WriteBool(final)
		w.bw.WriteBits(0b10, 2)
		w.s.plan.writeHeader(&w.bw)
		w.s.dyn.fill(w.s.plan.litLens[:], w.s.plan.distLens[:])
		t = &w.s.dyn
	default:
		w.bw.WriteBool(final)
		w.bw.WriteBits(0b01, 2)
	}
	return emit(&w.bw, t, cmds)
}

// writeStored writes src as stored blocks of at most 65535 bytes. An
// empty src is one empty stored block: it byte-aligns the stream, which
// is how a parallel segment ends and how a sync flush is marked.
func (w *blockWriter) writeStored(src []byte, final bool) {
	for {
		n := min(len(src), 65535)
		last := n == len(src)
		w.bw.WriteBool(final && last)
		w.bw.WriteBits(0b00, 2)
		w.bw.AlignByte()
		w.bw.WriteBits(uint32(n), 16)
		w.bw.WriteBits(^uint32(n), 16)
		w.bw.WriteBytes(src[:n])
		if src = src[n:]; last {
			return
		}
	}
}

// deflateBlock returns dst followed by cmds as one final block of the
// cheapest kind in kinds, padded to a byte boundary. src is the bytes
// cmds expand to; only a caller allowing stored blocks needs it.
func deflateBlock(dst []byte, cmds []token.Command, src []byte, kinds blockKind) ([]byte, error) {
	var w blockWriter
	w.bw.Reset(dst)
	if err := w.writeBlock(cmds, src, kinds, true); err != nil {
		return nil, err
	}
	w.bw.AlignByte()
	return w.bw.Drain(), nil
}

// bodyBuf returns a buffer holding prefix, with room for a Deflate body
// of cmds: literals cost at most 9 bits plus slack for match extra
// bits. A short estimate only costs a growth copy, never correctness.
func bodyBuf(prefix []byte, cmds []token.Command) []byte {
	return append(make([]byte, 0, len(prefix)+2*len(cmds)+64), prefix...)
}

// appendAdler appends the zlib trailer, src's Adler-32, to out.
func appendAdler(out, src []byte) []byte {
	return binary.BigEndian.AppendUint32(out, checksum.Adler32Sum(src))
}

// CommandBits returns the encoded size of c in bits under the fixed
// tables — the cost model the estimator uses for output-size figures.
func CommandBits(c token.Command) int {
	if c.K == token.Literal {
		if c.Lit < 144 {
			return 8
		}
		return 9
	}
	lc := lenCodeFor(c.Length)
	dc := distCodeFor(c.Distance)
	n := int(fixedLitLens[lc.sym]) // 7 or 8
	return n + int(lc.extra) + 5 + int(dc.extra)
}

// FixedDeflate encodes cmds as a single final fixed-Huffman block and
// returns the raw Deflate stream.
func FixedDeflate(cmds []token.Command) ([]byte, error) {
	return deflateBlock(bodyBuf(nil, cmds), cmds, nil, blockFixed)
}

// StoredDeflate encodes src as stored (uncompressed) blocks — the
// fallback for incompressible data. Each stored block holds at most
// 65535 bytes.
func StoredDeflate(src []byte) ([]byte, error) {
	var w blockWriter
	w.bw.Reset(make([]byte, 0, len(src)+5*(len(src)/65535+1)))
	w.writeStored(src, true)
	return w.bw.Drain(), nil
}

// ZlibHeader returns the two-byte RFC 1950 header for the given window
// size (power of two, 256..32768).
func ZlibHeader(window int) ([2]byte, error) {
	if window < 256 || window > 32768 || window&(window-1) != 0 {
		return [2]byte{}, fmt.Errorf("deflate: zlib window %d must be a power of two in [256,32768]", window)
	}
	cinfo := uint(bits.TrailingZeros(uint(window))) - 8
	cmf := byte(cinfo<<4 | 8) // CM=8 (deflate)
	flg := byte(0)            // FLEVEL=0 (fastest), FDICT=0
	rem := (uint32(cmf)*256 + uint32(flg)) % 31
	if rem != 0 {
		flg += byte(31 - rem)
	}
	return [2]byte{cmf, flg}, nil
}

// ZlibWrap builds a complete RFC 1950 stream around a raw Deflate body.
// src is the original (uncompressed) data, needed for the Adler-32
// trailer.
func ZlibWrap(deflateBody, src []byte, window int) ([]byte, error) {
	hdr, err := ZlibHeader(window)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(deflateBody)+6)
	out = append(out, hdr[0], hdr[1])
	out = append(out, deflateBody...)
	return appendAdler(out, src), nil
}

// ZlibCompress is the end-to-end path the hardware implements: an LZSS
// command stream Huffman-coded with the fixed table inside a ZLib
// container. src must be the bytes cmds expand to.
func ZlibCompress(cmds []token.Command, src []byte, window int) ([]byte, error) {
	return zlibBlock(cmds, src, window, blockFixed)
}

// zlibBlock returns the zlib stream of cmds as one final block of the
// cheapest kind in kinds: header, block and Adler-32 trailer in one
// buffer.
func zlibBlock(cmds []token.Command, src []byte, window int, kinds blockKind) ([]byte, error) {
	hdr, err := ZlibHeader(window)
	if err != nil {
		return nil, err
	}
	out, err := deflateBlock(bodyBuf(hdr[:], cmds), cmds, src, kinds)
	if err != nil {
		return nil, err
	}
	return appendAdler(out, src), nil
}

// zlibDictHeader returns the six-byte FDICT variant of the RFC 1950
// header (§2.2): CMF as usual, FLG with FDICT set and FCHECK
// recomputed, then the four-byte DICTID. Shared by the serial and
// parallel preset-dictionary encoders so the two emit byte-identical
// containers.
func zlibDictHeader(window int, dictID uint32) ([6]byte, error) {
	hdr, err := ZlibHeader(window)
	if err != nil {
		return [6]byte{}, err
	}
	cmf, flg := hdr[0], hdr[1]|0x20 // set FDICT
	// Recompute FCHECK for the new FLG.
	flg &^= 0x1F
	if rem := (uint32(cmf)*256 + uint32(flg)) % 31; rem != 0 {
		flg += byte(31 - rem)
	}
	return [6]byte{cmf, flg,
		byte(dictID >> 24), byte(dictID >> 16), byte(dictID >> 8), byte(dictID)}, nil
}

// ZlibCompressDict is ZlibCompress with a preset dictionary: the header
// carries the FDICT flag and the dictionary's Adler-32 as DICTID
// (RFC 1950 §2.2), so any zlib implementation given the same dictionary
// can decode the stream.
func ZlibCompressDict(data, dict []byte, p lzss.Params) ([]byte, error) {
	cmds, _, err := lzss.CompressWithDict(dict, data, p)
	if err != nil {
		return nil, err
	}
	hdr, err := zlibDictHeader(p.Window, checksum.Adler32Sum(dict))
	if err != nil {
		return nil, err
	}
	out, err := deflateBlock(bodyBuf(hdr[:], cmds), cmds, nil, blockFixed)
	if err != nil {
		return nil, err
	}
	return appendAdler(out, data), nil
}
