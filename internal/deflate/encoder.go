package deflate

import (
	"bytes"
	"fmt"
	"math/bits"

	"lzssfpga/internal/bitio"
	"lzssfpga/internal/lzss"
	"lzssfpga/internal/token"
)

// Encoder turns LZSS command streams into Deflate bit streams. It
// mirrors the paper's pipelined fixed-table Huffman stage: because the
// table is fixed, encoding is a pure per-command lookup and the stage
// never stalls the LZSS FSM. The code tables are shared package
// singletons stored pre-reversed, so construction is allocation-free
// and emission needs no per-symbol bit reversal.
type Encoder struct {
	bw       *bitio.Writer
	litCodes []uint16 // bit-reversed fixed codes
	litLens  []uint8
	dstCodes []uint16 // bit-reversed fixed codes
	dstLens  []uint8
}

// NewEncoder returns an encoder emitting to bw using the fixed tables.
func NewEncoder(bw *bitio.Writer) *Encoder {
	return &Encoder{
		bw:       bw,
		litCodes: fixedLitCodesRev,
		litLens:  fixedLitLens,
		dstCodes: fixedDistCodesRev,
		dstLens:  fixedDistLens,
	}
}

// Reset retargets the encoder at bw, for pooled reuse.
func (e *Encoder) Reset(bw *bitio.Writer) { e.bw = bw }

// BeginBlock writes the block header. final marks BFINAL; the block
// type is always fixed-Huffman (BTYPE=01).
func (e *Encoder) BeginBlock(final bool) {
	e.bw.WriteBool(final)
	e.bw.WriteBits(0b01, 2)
}

// Encode writes one LZSS command as Huffman symbols.
func (e *Encoder) Encode(c token.Command) error {
	switch c.K {
	case token.Literal:
		e.putSym(int(c.Lit))
		return nil
	case token.Match:
		if err := c.Validate(); err != nil {
			return err
		}
		lc := lenCodeFor(c.Length)
		e.putSym(int(lc.sym))
		if lc.extra > 0 {
			e.bw.WriteBits(uint32(c.Length)-uint32(lc.base), uint(lc.extra))
		}
		dc := distCodeFor(c.Distance)
		e.bw.WriteBits(uint32(e.dstCodes[dc.sym]), uint(e.dstLens[dc.sym]))
		if dc.extra > 0 {
			e.bw.WriteBits(uint32(c.Distance)-uint32(dc.base), uint(dc.extra))
		}
		return nil
	default:
		return fmt.Errorf("deflate: unknown command kind %d", c.K)
	}
}

// EncodeAll encodes a command slice, batching runs of consecutive
// literals through the bit writer's coded fast path (bitio.WriteCoded).
// Output is bit-identical to calling Encode per command; the batching
// only removes per-symbol call and accumulator-bookkeeping overhead,
// which dominates on literal-heavy (incompressible) streams.
func (e *Encoder) EncodeAll(cmds []token.Command) error {
	var lits [512]byte
	i := 0
	for i < len(cmds) {
		if cmds[i].K == token.Literal {
			n := 0
			for i < len(cmds) && cmds[i].K == token.Literal {
				lits[n] = cmds[i].Lit
				n++
				i++
				if n == len(lits) {
					e.bw.WriteCoded(lits[:n], e.litCodes, e.litLens)
					n = 0
				}
			}
			if n > 0 {
				e.bw.WriteCoded(lits[:n], e.litCodes, e.litLens)
			}
			continue
		}
		if err := e.Encode(cmds[i]); err != nil {
			return err
		}
		i++
	}
	return nil
}

// EndBlock writes the end-of-block symbol (256).
func (e *Encoder) EndBlock() { e.putSym(endOfBlock) }

func (e *Encoder) putSym(sym int) {
	e.bw.WriteBits(uint32(e.litCodes[sym]), uint(e.litLens[sym]))
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
	var buf bytes.Buffer
	// Size hint: literals cost at most 9 bits plus slack for match extra
	// bits; a short estimate only costs a growth copy, never correctness.
	buf.Grow(len(cmds)*2 + 64)
	bw := bitio.NewWriter(&buf)
	e := NewEncoder(bw)
	e.BeginBlock(true)
	if err := e.EncodeAll(cmds); err != nil {
		return nil, err
	}
	e.EndBlock()
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// StoredDeflate encodes src as stored (uncompressed) blocks — the
// fallback for incompressible data. Each stored block holds at most
// 65535 bytes.
func StoredDeflate(src []byte) ([]byte, error) {
	var buf bytes.Buffer
	bw := bitio.NewWriter(&buf)
	rest := src
	for {
		chunk := rest
		if len(chunk) > 65535 {
			chunk = chunk[:65535]
		}
		rest = rest[len(chunk):]
		final := len(rest) == 0
		bw.WriteBool(final)
		bw.WriteBits(0b00, 2)
		bw.AlignByte()
		n := uint32(len(chunk))
		bw.WriteBits(n, 16)
		bw.WriteBits(^n&0xFFFF, 16)
		bw.WriteBytes(chunk)
		if final {
			break
		}
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
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
	sum := AdlerChecksum(src)
	out = append(out, byte(sum>>24), byte(sum>>16), byte(sum>>8), byte(sum))
	return out, nil
}

// ZlibCompress is the end-to-end path the hardware implements: an LZSS
// command stream Huffman-coded with the fixed table inside a ZLib
// container. src must be the bytes cmds expand to.
func ZlibCompress(cmds []token.Command, src []byte, window int) ([]byte, error) {
	// Encode header, body and trailer into one pre-grown buffer rather
	// than building the body separately and copying it through ZlibWrap.
	hdr, err := ZlibHeader(window)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	buf.Grow(len(cmds)*2 + 64)
	buf.Write(hdr[:])
	bw := bitio.NewWriter(&buf)
	e := NewEncoder(bw)
	e.BeginBlock(true)
	if err := e.EncodeAll(cmds); err != nil {
		return nil, err
	}
	e.EndBlock()
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	sum := AdlerChecksum(src)
	buf.Write([]byte{byte(sum >> 24), byte(sum >> 16), byte(sum >> 8), byte(sum)})
	return buf.Bytes(), nil
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
	body, err := FixedDeflate(cmds)
	if err != nil {
		return nil, err
	}
	hdr, err := zlibDictHeader(p.Window, AdlerChecksum(dict))
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(body)+10)
	out = append(out, hdr[:]...)
	out = append(out, body...)
	sum := AdlerChecksum(data)
	return append(out, byte(sum>>24), byte(sum>>16), byte(sum>>8), byte(sum)), nil
}
