package deflate

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"lzssfpga/internal/bitio"
	"lzssfpga/internal/token"
)

// The inflater builds its decode tables from the code lengths in the
// stream alone, never from the encoder's tables in huffman.go, so that
// a bug in the encoder's table construction cannot cancel out in
// round-trip tests.

// ErrCorrupt reports a malformed Deflate or ZLib stream.
var ErrCorrupt = errors.New("deflate: corrupt stream")

var (
	errBadCode   = fmt.Errorf("%w: invalid Huffman code", ErrCorrupt)
	errEmptyCode = fmt.Errorf("%w: empty code", ErrCorrupt)
)

// A huffDec entry holds a code's length in bits 0-6, entryLink in bit
// 7, and from bit 8 the symbol or, for a link, the offset of a
// second-level table. A bit pattern that starts no code has length
// entryNone, more bits than a bitio.Reader ever buffers, so one
// comparison rejects it with the codes the input ends inside.
const (
	tableBits = 10
	tableMask = 1<<tableBits - 1
	entryLen  = 1<<7 - 1
	entryNone = entryLen
	entryLink = 1 << 7
)

// huffDec decodes one canonical Huffman code (RFC 1951 §3.2.2) by
// table lookup, in the shape of zlib's inftrees: the next tableBits
// input bits index a primary table that resolves every shorter code in
// one step, and the first tableBits bits of a longer code link to a
// second-level table indexed by the bits after them.
type huffDec struct {
	table   [1 << tableBits]uint32
	sub     []uint32 // second-level tables of subMask+1 entries each
	subMask uint32
}

func newHuffDec(lengths []uint8) (*huffDec, error) {
	h := &huffDec{}
	if err := h.build(lengths); err != nil {
		return nil, err
	}
	return h, nil
}

// build fills h from the code lengths of symbols 0..len(lengths)-1. It
// rejects over-subscribed and incomplete codes, except a single code of
// length 1, which compress/flate and zlib accept too. A code with no
// lengths at all returns errEmptyCode and leaves h matching nothing: a
// distance code may be empty when its block holds only literals.
func (h *huffDec) build(lengths []uint8) error {
	var count [maxCodeLen + 1]int
	for _, l := range lengths {
		if l > maxCodeLen {
			return fmt.Errorf("%w: code length %d", ErrCorrupt, l)
		}
		count[l]++
	}
	count[0] = 0
	left, maxLen := 1, 0
	for l := 1; l <= maxCodeLen; l++ {
		left = left<<1 - count[l]
		if left < 0 {
			return fmt.Errorf("%w: over-subscribed code", ErrCorrupt)
		}
		if count[l] > 0 {
			maxLen = l
		}
	}
	if left > 0 {
		for i := range h.table {
			h.table[i] = entryNone
		}
		switch {
		case maxLen == 0:
			return errEmptyCode
		case maxLen > 1 || count[1] > 1:
			return fmt.Errorf("%w: incomplete code", ErrCorrupt)
		}
	}
	// Sort the symbols by code length; canonical codes then count up
	// through them in order (RFC 1951 §3.2.2).
	var offs [maxCodeLen + 2]int
	for l := 1; l <= maxCodeLen; l++ {
		offs[l+1] = offs[l] + count[l]
	}
	var sorted [numLitLenSym]uint16
	for sym, l := range lengths {
		if l != 0 {
			sorted[offs[l]] = uint16(sym)
			offs[l]++
		}
	}
	subBits := max(maxLen-tableBits, 0)
	h.subMask = 1<<subBits - 1
	h.sub = h.sub[:0]
	// Codes left-aligned to maxLen bits increase in this order, so the
	// long codes sharing a primary index arrive together.
	code, i, prefix := 0, 0, -1
	for l := 1; l <= maxLen; l++ {
		for end := i + count[l]; i < end; i++ {
			e := uint32(sorted[i])<<8 | uint32(l)
			rev := int(bits.Reverse16(uint16(code)) >> (16 - l))
			code++
			if l <= tableBits {
				for j := rev; j < 1<<tableBits; j += 1 << l {
					h.table[j] = e
				}
				continue
			}
			if p := rev & tableMask; p != prefix {
				prefix = p
				h.table[p] = uint32(len(h.sub))<<8 | entryLink
				h.sub = append(h.sub, make([]uint32, 1<<subBits)...)
			}
			sub := h.sub[len(h.sub)-1<<subBits:]
			for j := rev >> tableBits; j < len(sub); j += 1 << (l - tableBits) {
				sub[j] = e
			}
		}
		code <<= 1
	}
	return nil
}

// decode reads one symbol of h from br: one table lookup on the peeked
// bits, two for a code longer than tableBits. The caller refills br
// first. decode returns -1, and consumes nothing, when no code starts
// with the peeked bits or the input ends inside the code; err says
// which.
func (h *huffDec) decode(br *bitio.Reader) int {
	e := h.entry(br.Peek())
	n := uint(e & entryLen)
	if n > br.Buffered() {
		return -1
	}
	br.Consume(n)
	return int(e >> 8)
}

func (h *huffDec) entry(b uint64) uint32 {
	e := h.table[b&tableMask]
	if e&entryLink != 0 {
		e = h.sub[e>>8+uint32(b>>tableBits)&h.subMask]
	}
	return e
}

// err is the error for a decode that returned -1.
func (h *huffDec) err(br *bitio.Reader) error {
	if h.entry(br.Peek())&entryLen == entryNone {
		return errBadCode
	}
	return br.Short()
}

var (
	fixedLitDec  *huffDec
	fixedDistDec *huffDec
)

func init() {
	var err error
	fixedLitDec, err = newHuffDec(fixedLitLenLengths())
	if err != nil {
		panic(err)
	}
	fixedDistDec, err = newHuffDec(fixedDistLengths())
	if err != nil {
		panic(err)
	}
}

// codeLengthOrder is the permuted order in which dynamic-block code
// length code lengths are stored (RFC 1951 §3.2.7).
var codeLengthOrder = [19]int{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// Where the inflater is in the stream.
const (
	stateHeader  = iota // a block header is next
	stateStored         // inside a stored block
	stateHuffman        // inside a fixed or dynamic Huffman block
	stateDone           // the final block has ended
)

// inflater is the one decode core under every entry point: one
// block-header reader, one symbol loop, and the one place DecodeLimits
// are enforced. The entry points differ only in where the output goes:
// InflateLimited and the zlib decoders grow one slice, StreamInflater
// decodes into its window in bounded chunks, and ParseCommands records
// every symbol as an LZSS command too.
type inflater struct {
	br     *bitio.Reader
	lim    DecodeLimits
	maxOut int // output slice length not to pass: the history plus lim.MaxOutputBytes
	blocks int
	state  int
	final  bool // the current block is the last
	stored int  // bytes left in the current stored block

	lit, dist                *huffDec
	dynLit, dynDist, codeLen huffDec

	record bool
	cmds   []token.Command
}

// newInflater decodes br under lim, after history bytes of output that
// matches may reach into but the output limit does not count.
func newInflater(br *bitio.Reader, lim DecodeLimits, history int) *inflater {
	f := &inflater{br: br, lim: lim, maxOut: math.MaxInt}
	if lim.MaxOutputBytes > 0 {
		f.maxOut = history + lim.MaxOutputBytes
	}
	return f
}

// inflate appends decoded bytes to out until the final block ends or
// len(out) reaches stop, and returns out. The bytes already in out are
// the history that matches reach back into.
func (f *inflater) inflate(out []byte, stop int) ([]byte, error) {
	var err error
	for err == nil && len(out) < stop && f.state != stateDone {
		switch f.state {
		case stateHeader:
			err = f.header()
		case stateStored:
			out, err = f.storedBytes(out, stop)
		default:
			out, err = f.symbols(out, stop)
		}
	}
	return out, normEOF(err)
}

// inflateAll decodes all of data into a new slice that starts with
// the preset history hist.
func inflateAll(data, hist []byte, lim DecodeLimits) ([]byte, error) {
	f := newInflater(bitio.NewReaderBytes(data), lim, len(hist))
	// Room for 3x expansion, above the 1.84-2.49x the repository's
	// benchmark workloads measure, spares their streams any regrowth,
	// which costs more time and allocates more bytes in all than the
	// unused headroom does. A stream that expands more grows the slice
	// as it goes; one held to a tighter limit gets room for the limit
	// and the fast loop's margin, so it never grows.
	room := 3*len(data) + 8
	if lim := f.maxOut - len(hist); lim < room {
		room = lim + fastMargin
	}
	out := make([]byte, 0, len(hist)+room)
	out, err := f.inflate(append(out, hist...), math.MaxInt)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// header reads a block header and everything up to the block's data.
func (f *inflater) header() error {
	if f.lim.MaxBlocks > 0 && f.blocks >= f.lim.MaxBlocks {
		return fmt.Errorf("%w: %w: more than %d blocks", ErrCorrupt, ErrLimit, f.lim.MaxBlocks)
	}
	f.blocks++
	v, err := f.br.ReadBits(3)
	if err != nil {
		return err
	}
	f.final = v&1 != 0
	switch v >> 1 {
	case 0:
		f.br.AlignByte()
		v, err := f.br.ReadBits(32)
		if err != nil {
			return err
		}
		if v&0xFFFF != ^v>>16 {
			return fmt.Errorf("%w: stored length check", ErrCorrupt)
		}
		f.stored, f.state = int(v&0xFFFF), stateStored
	case 1:
		f.lit, f.dist, f.state = fixedLitDec, fixedDistDec, stateHuffman
	case 2:
		if err := f.dynamicHeader(); err != nil {
			return err
		}
		f.lit, f.dist, f.state = &f.dynLit, &f.dynDist, stateHuffman
	default:
		return fmt.Errorf("%w: reserved block type", ErrCorrupt)
	}
	return nil
}

func (f *inflater) endBlock() {
	f.state = stateHeader
	if f.final {
		f.state = stateDone
	}
}

// dynamicHeader reads a dynamic block's code-length code, then the
// literal/length and distance code lengths it codes (RFC 1951 §3.2.7),
// and builds f's dynamic tables from them.
func (f *inflater) dynamicHeader() error {
	v, err := f.br.ReadBits(14)
	if err != nil {
		return err
	}
	nLit, nDist, nCl := int(v&31)+257, int(v>>5&31)+1, int(v>>10)+4
	if nLit > 286 || nDist > numDistSym {
		return fmt.Errorf("%w: dynamic header counts", ErrCorrupt)
	}
	var clLens [19]uint8
	for i := 0; i < nCl; i++ {
		v, err := f.br.ReadBits(3)
		if err != nil {
			return err
		}
		clLens[codeLengthOrder[i]] = uint8(v)
	}
	if err := f.codeLen.build(clLens[:]); err != nil {
		return err
	}
	var lens [286 + numDistSym]uint8
	n := nLit + nDist
	for i := 0; i < n; {
		f.br.Refill()
		sym := f.codeLen.decode(f.br)
		if sym < 0 {
			return f.codeLen.err(f.br)
		}
		if sym < 16 {
			lens[i] = uint8(sym)
			i++
			continue
		}
		var prev uint8
		extra, rep := uint(7), 11 // symbol 18: 11-138 zeros
		switch sym {
		case 16: // 3-6 copies of the previous length
			if i == 0 {
				return fmt.Errorf("%w: repeat with no previous length", ErrCorrupt)
			}
			prev, extra, rep = lens[i-1], 2, 3
		case 17: // 3-10 zeros
			extra, rep = 3, 3
		}
		v, err := f.br.ReadBits(extra)
		if err != nil {
			return err
		}
		rep += int(v)
		if i+rep > n {
			return fmt.Errorf("%w: code length repeat overflow", ErrCorrupt)
		}
		for ; rep > 0; rep-- {
			lens[i] = prev
			i++
		}
	}
	if err := f.dynLit.build(lens[:nLit]); err != nil {
		return err
	}
	if err := f.dynDist.build(lens[nLit:n]); err != nil && !errors.Is(err, errEmptyCode) {
		return err
	}
	return nil
}

// storedBytes copies a stored block's bytes to out, up to stop.
func (f *inflater) storedBytes(out []byte, stop int) ([]byte, error) {
	if len(out)+f.stored > f.maxOut {
		return out, errOutputLimit(f.lim)
	}
	at := len(out)
	n := min(f.stored, stop-at)
	out = f.grow(out, n)[:at+n]
	if err := f.br.ReadBytes(out[at:]); err != nil {
		return out[:at], err
	}
	if f.record {
		for _, b := range out[at:] {
			f.cmds = append(f.cmds, token.Lit(b))
		}
	}
	if f.stored -= n; f.stored == 0 {
		f.endBlock()
	}
	return out, nil
}

// fastMargin is the output room the fast loop keeps ahead of it: the
// longest match and the word copies' slack past its end.
const fastMargin = token.MaxMatch + 8

// grow returns out with room for need more bytes, where the caller has
// checked that len(out)+need leaves at most 8 bytes of slack past
// maxOut. It is the output's one growth step: at least double, capped at
// maxOut plus fastMargin, so the output allocations of a decode add up
// to about three times its limit and its capacity ends within
// fastMargin of it.
func (f *inflater) grow(out []byte, need int) []byte {
	if need <= cap(out)-len(out) {
		return out
	}
	c := max(2*cap(out), len(out)+need)
	if c-f.maxOut > fastMargin {
		c = f.maxOut + fastMargin
	}
	return append(make([]byte, 0, c), out...)
}

// copyBits is the most bits a match takes after its length code: the
// length's extra bits, a distance code and the distance's extra bits.
// symbols refills before a literal/length code and again, if fewer bits
// than this remain, before the rest of a match.
const copyBits = 5 + maxCodeLen + 13

// symbols decodes a Huffman block's literals and matches into out
// until the end-of-block symbol or until len(out) reaches stop. A match
// starting before stop may end up to token.MaxMatch-1 bytes past it.
// fast decodes every symbol for which the input and the output have
// room; this loop decodes the symbols at the edges, records commands
// for ParseCommands, and reports every error.
func (f *inflater) symbols(out []byte, stop int) ([]byte, error) {
	br, lit, dist, record, maxOut := f.br, f.lit, f.dist, f.record, f.maxOut
	for len(out) < stop {
		if !record {
			if out = f.fast(out, stop); len(out) >= stop {
				break
			}
		}
		if br.Buffered() < maxCodeLen {
			br.Refill()
		}
		sym := lit.decode(br)
		if sym < 0 {
			return out, lit.err(br)
		}
		if sym < 256 {
			if len(out) >= maxOut {
				return out, errOutputLimit(f.lim)
			}
			out = append(f.grow(out, 1), byte(sym))
			if record {
				f.cmds = append(f.cmds, token.Lit(byte(sym)))
			}
			continue
		}
		if sym == endOfBlock {
			f.endBlock()
			return out, nil
		}
		if sym > maxLitLen {
			return out, fmt.Errorf("%w: literal/length symbol %d", ErrCorrupt, sym)
		}
		if br.Buffered() < copyBits {
			br.Refill()
		}
		n := uint(lengthExtra[sym-257])
		if n > br.Buffered() {
			return out, br.Short()
		}
		length := int(lengthBase[sym-257]) + int(br.Peek()&(1<<n-1))
		br.Consume(n)
		dsym := dist.decode(br)
		if dsym < 0 {
			return out, dist.err(br)
		}
		if dsym >= numDistSym {
			return out, fmt.Errorf("%w: distance symbol %d", ErrCorrupt, dsym)
		}
		if n = uint(distExtra[dsym]); n > br.Buffered() {
			return out, br.Short()
		}
		d := int(distBase[dsym]) + int(br.Peek()&(1<<n-1))
		br.Consume(n)
		if d > len(out) {
			return out, fmt.Errorf("%w: distance %d exceeds output %d", ErrCorrupt, d, len(out))
		}
		if len(out)+length > maxOut {
			return out, errOutputLimit(f.lim)
		}
		at := len(out)
		out = f.grow(out, length+8)
		copyMatch(out[:cap(out)], at, d, length)
		out = out[:at+length]
		if record {
			f.cmds = append(f.cmds, token.Copy(d, length))
		}
	}
	return out, nil
}

// fast is symbols' inner loop, in the shape of zlib's inflate_fast. It
// runs while at least 8 input bytes remain and out has fastMargin bytes
// of room under both its capacity and maxOut, so no symbol can run out
// of bits or of room. The bit buffer and the unread input live in
// locals, a whole word is refilled before every symbol, and bytes are
// written by index. A match is decoded from the bit buffer before any of
// it is consumed, so fast leaves every symbol it does not decode, the
// end of the block and every error among them, unconsumed for symbols.
func (f *inflater) fast(out []byte, stop int) []byte {
	acc, nAcc, in := f.br.State()
	lit, dist := f.lit, f.dist
	end := min(stop, cap(out)-fastMargin, f.maxOut-fastMargin)
	buf, at := out[:cap(out)], len(out)
	// Every shift count below is masked to 63, which it never exceeds,
	// so the compiler drops its guard for counts of 64 and more.
	for at < end && len(in) >= 8 {
		acc |= binary.LittleEndian.Uint64(in) << (nAcc & 63)
		in = in[(63-nAcc)>>3:]
		nAcc |= 56
		e := lit.entry(acc)
		sym := int(e >> 8)
		if sym < 256 {
			if e&entryLen == entryNone {
				break
			}
			n := uint(e) & 63
			acc >>= n
			nAcc -= n
			buf[at] = byte(sym)
			at++
			// A second literal from the same refill: at least 41 of
			// the 56 bits remain, and a code is at most 15.
			if e = lit.entry(acc); e>>8 < 256 && e&entryLen != entryNone {
				n = uint(e) & 63
				acc >>= n
				nAcc -= n
				buf[at] = byte(e >> 8)
				at++
			}
			continue
		}
		if sym == endOfBlock || sym > maxLitLen {
			break
		}
		// The refill covers the whole match: a 15-bit length code, 5
		// extra bits, a 15-bit distance code and 13 extra bits. n counts
		// the match's bits.
		n := uint(e) & 63
		nb := uint(lengthExtra[sym-257]) & 63
		length := int(lengthBase[sym-257]) + int(acc>>n&(1<<nb-1))
		n += nb
		e = dist.entry(acc >> (n & 63))
		dsym := int(e >> 8)
		if e&entryLen == entryNone || dsym >= numDistSym {
			break
		}
		n += uint(e) & 63
		nb = uint(distExtra[dsym]) & 63
		d := int(distBase[dsym]) + int(acc>>(n&63)&(1<<nb-1))
		if d > at {
			break
		}
		n += nb
		acc >>= n & 63
		nAcc -= n
		copyMatch(buf, at, d, length)
		at += length
	}
	f.br.SetState(acc, nAcc, in)
	return out[:at]
}

// copyMatch writes the length bytes that start d bytes before b[n] to
// b[n:], and may write up to seven bytes past them, so b needs that
// room. With d >= 8 it moves eight bytes at a time, each word read from
// bytes already final. A shorter distance overlaps its own output, so
// the copy goes in runs of at most the bytes copied so far.
func copyMatch(b []byte, n, d, length int) {
	src, end := n-d, n+length
	if d >= 8 {
		for ; n < end; n, src = n+8, src+8 {
			binary.LittleEndian.PutUint64(b[n:], binary.LittleEndian.Uint64(b[src:]))
		}
		return
	}
	for n < end {
		n += copy(b[n:end], b[src:n])
	}
}

// Inflate decodes a complete raw Deflate stream under
// DefaultDecodeLimits; use InflateLimited to choose the bounds.
func Inflate(data []byte) ([]byte, error) {
	return InflateLimited(data, DefaultDecodeLimits())
}

// ZlibDecompress parses an RFC 1950 container, inflates the body and
// verifies the Adler-32 trailer, under DefaultDecodeLimits; use
// ZlibDecompressLimited to choose the bounds.
func ZlibDecompress(data []byte) ([]byte, error) {
	return ZlibDecompressLimited(data, DefaultDecodeLimits())
}
