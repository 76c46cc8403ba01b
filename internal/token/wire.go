package token

import (
	"fmt"
	"math/bits"

	"lzssfpga/internal/bitio"
)

// Wire format (paper §III, bit level): every command is a (D, L) pair
// where D occupies log2(N) bits (N = dictionary size) and L occupies 8
// bits. D == 0 marks a literal whose byte is in L; otherwise D is the
// copy distance and L is the copy length minus MinMatch.
//
// This is the raw stream crossing the LZSS→Huffman interface in the
// hardware; the estimator can also dump it for debugging.

// DistanceBits returns log2(window), the width of the D field, and an
// error if window is not a power of two in [1, MaxDistance].
func DistanceBits(window int) (uint, error) {
	if window < 1 || window > MaxDistance || window&(window-1) != 0 {
		return 0, fmt.Errorf("token: window %d must be a power of two in [1,%d]", window, MaxDistance)
	}
	return uint(bits.TrailingZeros(uint(window))), nil
}

// WireWriter packs commands into the raw D/L bit stream.
type WireWriter struct {
	bw     *bitio.Writer
	dBits  uint
	window int
}

// NewWireWriter wraps bw with the D-field width implied by window.
func NewWireWriter(bw *bitio.Writer, window int) (*WireWriter, error) {
	db, err := DistanceBits(window)
	if err != nil {
		return nil, err
	}
	return &WireWriter{bw: bw, dBits: db, window: window}, nil
}

// Write emits one command.
//
// A subtlety from the paper: D is log2(N) bits, so the distance N itself
// (the maximum) aliases to 0, which is reserved for literals. The
// hardware avoids this by never matching at distance exactly N; we
// enforce the same rule here.
func (ww *WireWriter) Write(c Command) error {
	if err := c.Validate(); err != nil {
		return err
	}
	switch c.K {
	case Literal:
		ww.bw.WriteBits(0, ww.dBits)
		ww.bw.WriteBits(uint32(c.Lit), 8)
	case Match:
		if c.Distance >= ww.window {
			return fmt.Errorf("token: distance %d not representable in %d-bit D field (window %d)", c.Distance, ww.dBits, ww.window)
		}
		ww.bw.WriteBits(uint32(c.Distance), ww.dBits)
		ww.bw.WriteBits(uint32(c.Length-MinMatch), 8)
	}
	return nil
}

// WriteAll emits every command in cmds.
func (ww *WireWriter) WriteAll(cmds []Command) error {
	for _, c := range cmds {
		if err := ww.Write(c); err != nil {
			return err
		}
	}
	return nil
}

// BitsPerCommand reports the fixed size of one wire command in bits.
func (ww *WireWriter) BitsPerCommand() uint { return ww.dBits + 8 }

// WireReader unpacks commands from the raw D/L bit stream.
type WireReader struct {
	br    *bitio.Reader
	dBits uint
}

// NewWireReader wraps br with the D-field width implied by window.
func NewWireReader(br *bitio.Reader, window int) (*WireReader, error) {
	db, err := DistanceBits(window)
	if err != nil {
		return nil, err
	}
	return &WireReader{br: br, dBits: db}, nil
}

// Read extracts one command.
func (wr *WireReader) Read() (Command, error) {
	d, err := wr.br.ReadBits(wr.dBits)
	if err != nil {
		return Command{}, err
	}
	l, err := wr.br.ReadBits(8)
	if err != nil {
		return Command{}, err
	}
	if d == 0 {
		return Lit(byte(l)), nil
	}
	return Copy(int(d), int(l)+MinMatch), nil
}

// ReadN reads exactly n commands.
func (wr *WireReader) ReadN(n int) ([]Command, error) {
	cmds := make([]Command, 0, n)
	for i := 0; i < n; i++ {
		c, err := wr.Read()
		if err != nil {
			return cmds, err
		}
		cmds = append(cmds, c)
	}
	return cmds, nil
}
