package token

import (
	"bytes"

	"lzssfpga/internal/bitio"
)

func newBW() *bitio.Writer                  { return bitio.NewWriter(nil) }
func newBR(buf *bytes.Buffer) *bitio.Reader { return bitio.NewReader(buf) }

// flushBW byte-aligns bw and returns everything it wrote.
func flushBW(bw *bitio.Writer) *bytes.Buffer {
	bw.AlignByte()
	return bytes.NewBuffer(bw.Drain())
}
