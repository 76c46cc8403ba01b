package deflate

import (
	"lzssfpga/internal/bitio"
	"lzssfpga/internal/token"
)

// Dynamic-Huffman block encoder (RFC 1951 §3.2.7). This is the
// compression-ratio extension the paper points at: per-block code
// tables tailored to the symbol statistics, at the price of a
// two-pass, stall-prone encoder that the hardware deliberately avoids.

// clSymbol is one step of the code-length-code run-length encoding.
type clSymbol struct {
	sym   int // 0..18
	extra uint32
	nbits uint
}

// rleCodeLengths compresses a code-length vector with symbols 16/17/18
// (copy previous 3-6, zeros 3-10, zeros 11-138).
func rleCodeLengths(lens []uint8) []clSymbol {
	return rleCodeLengthsInto(nil, lens)
}

// rleCodeLengthsInto is rleCodeLengths appending into out (pass a
// truncated scratch slice to reuse its backing array).
func rleCodeLengthsInto(out []clSymbol, lens []uint8) []clSymbol {
	for i := 0; i < len(lens); {
		l := lens[i]
		run := 1
		for i+run < len(lens) && lens[i+run] == l {
			run++
		}
		switch {
		case l == 0 && run >= 3:
			for run >= 3 {
				n := run
				if n > 138 {
					n = 138
				}
				if n <= 10 {
					out = append(out, clSymbol{sym: 17, extra: uint32(n - 3), nbits: 3})
				} else {
					out = append(out, clSymbol{sym: 18, extra: uint32(n - 11), nbits: 7})
				}
				run -= n
				i += n
			}
			for ; run > 0; run-- {
				out = append(out, clSymbol{sym: 0})
				i++
			}
		case l != 0 && run >= 4:
			out = append(out, clSymbol{sym: int(l)})
			i++
			run--
			for run >= 3 {
				n := run
				if n > 6 {
					n = 6
				}
				out = append(out, clSymbol{sym: 16, extra: uint32(n - 3), nbits: 2})
				run -= n
				i += n
			}
			for ; run > 0; run-- {
				out = append(out, clSymbol{sym: int(l)})
				i++
			}
		default:
			for ; run > 0; run-- {
				out = append(out, clSymbol{sym: int(l)})
				i++
			}
		}
	}
	return out
}

// dynamicPlan holds the code lengths and header layout of one dynamic
// block. Its buffers are reused across plan() calls, so a long-lived
// plan — e.g. one held by a pooled parallel worker — plans block after
// block without allocating.
type dynamicPlan struct {
	litLens  [numLitLenSym]uint8
	distLens [numDistSym]uint8
	clLens   [19]uint8
	clCodes  [19]uint16 // bit-reversed into Deflate storage order
	clSyms   []clSymbol
	nLit     int // HLIT + 257
	nDist    int // HDIST + 1
	nCl      int // HCLEN + 4

	// scratch, valid only during plan()
	all []uint8 // concatenated lit+dist lengths for the CL pass
	cb  codeBuilder
}

// plan builds the code lengths and header layout for the block counted
// in h.
func (p *dynamicPlan) plan(h *histogram) {
	p.litLens = [numLitLenSym]uint8{}
	p.cb.build(h.lit[:], p.litLens[:], maxCodeLen)
	p.distLens = [numDistSym]uint8{}
	p.cb.build(h.dist[:], p.distLens[:], maxCodeLen)
	// The distance code may be empty (no matches): RFC 1951 allows one
	// zero-length entry, but a single 1-bit dummy is what zlib emits
	// and what every decoder accepts.
	if maxDepth(p.distLens[:]) == 0 {
		p.distLens[0] = 1
	}
	// Trim trailing zeros down to the required minimums.
	p.nLit = numLitLenSym - 2 // symbols 286/287 never occur
	for p.nLit > 257 && p.litLens[p.nLit-1] == 0 {
		p.nLit--
	}
	p.nDist = numDistSym
	for p.nDist > 1 && p.distLens[p.nDist-1] == 0 {
		p.nDist--
	}
	// RLE the concatenated length vector and build the CL code over it.
	p.all = append(p.all[:0], p.litLens[:p.nLit]...)
	p.all = append(p.all, p.distLens[:p.nDist]...)
	p.clSyms = rleCodeLengthsInto(p.clSyms[:0], p.all)
	var clFreq [19]int64
	for _, s := range p.clSyms {
		clFreq[s.sym]++
	}
	p.clLens = [19]uint8{}
	p.cb.build(clFreq[:], p.clLens[:], 7)
	// HCLEN: trim the permuted CL length list.
	p.nCl = 19
	for p.nCl > 4 && p.clLens[codeLengthOrder[p.nCl-1]] == 0 {
		p.nCl--
	}
	reverseCodesInPlace(canonicalCodesInto(p.clCodes[:0], p.clLens[:]), p.clLens[:])
}

// headerBits returns the encoded size of the dynamic header that
// writeHeader writes.
func (p *dynamicPlan) headerBits() int {
	n := 5 + 5 + 4 + 3*p.nCl
	for _, s := range p.clSyms {
		n += int(p.clLens[s.sym]) + int(s.nbits)
	}
	return n
}

// writeHeader writes the dynamic header that follows BTYPE: the code
// counts, the code-length code and the run-length-coded code lengths.
func (p *dynamicPlan) writeHeader(bw *bitio.Writer) {
	bw.WriteBits(uint32(p.nLit-257), 5)
	bw.WriteBits(uint32(p.nDist-1), 5)
	bw.WriteBits(uint32(p.nCl-4), 4)
	for i := 0; i < p.nCl; i++ {
		bw.WriteBits(uint32(p.clLens[codeLengthOrder[i]]), 3)
	}
	for _, s := range p.clSyms {
		bw.WriteBits(uint32(p.clCodes[s.sym]), uint(p.clLens[s.sym]))
		if s.nbits > 0 {
			bw.WriteBits(s.extra, s.nbits)
		}
	}
}

// DynamicDeflate encodes cmds as one final dynamic-Huffman block.
func DynamicDeflate(cmds []token.Command) ([]byte, error) {
	return deflateBlock(bodyBuf(nil, cmds), cmds, nil, blockDynamic)
}

// BestDeflate picks the cheapest representation of the block among
// stored, fixed-Huffman and dynamic-Huffman — zlib's per-block choice.
// src must be the bytes cmds expand to (needed for the stored option).
func BestDeflate(cmds []token.Command, src []byte) ([]byte, error) {
	return deflateBlock(bodyBuf(nil, cmds), cmds, src, anyBlock)
}

// ZlibCompressBest is ZlibCompress with per-block format selection.
func ZlibCompressBest(cmds []token.Command, src []byte, window int) ([]byte, error) {
	return zlibBlock(cmds, src, window, anyBlock)
}
