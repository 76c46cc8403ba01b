package deflate

import (
	"compress/zlib"
	"context"
	"io"

	"lzssfpga/internal/bitio"
	"lzssfpga/internal/lzss"
)

// compressPar is ParallelCompress on a background context, for tests
// that only want the stream.
func compressPar(data []byte, p lzss.Params, o ParallelOpts) ([]byte, error) {
	z, _, err := ParallelCompress(context.Background(), data, p, o)
	return z, err
}

// flushBits byte-aligns bw and returns everything it wrote.
func flushBits(bw *bitio.Writer) []byte {
	bw.AlignByte()
	return bw.Drain()
}

func zlibNewReaderDict(r io.Reader, dict []byte) (io.ReadCloser, error) {
	return zlib.NewReaderDict(r, dict)
}

func zlibNewWriterDict(w io.Writer, dict []byte) (*zlib.Writer, error) {
	return zlib.NewWriterLevelDict(w, zlib.BestSpeed, dict)
}
