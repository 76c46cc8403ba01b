package deflate

import (
	"fmt"
	"io"

	"lzssfpga/internal/bitio"
	"lzssfpga/internal/lzss"
	"lzssfpga/internal/token"
)

// Writer is a streaming zlib compressor: an incremental LZSS stage
// (lzss.StreamCompressor) feeding per-block Huffman encoding. Each
// block is emitted as fixed or dynamic, whichever is smaller for its
// symbol statistics; Close finishes the stream with the final block and
// the Adler-32 trailer. Output is standard RFC 1950.
type Writer struct {
	w       *countWriter
	bw      *bitio.Writer
	sc      *lzss.StreamCompressor
	adler   *Adler32
	pending []token.Command
	window  int
	closed  bool
	err     error
	// Observability accumulators, flushed to the deflate_stream_*
	// metrics at block/flush/close granularity.
	obsIn, obsInFlushed, obsOutFlushed int64
}

// countWriter counts bytes on their way to the underlying writer so
// the stream metrics can report compressed output volume without
// involving the bit writer.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// flushObs publishes the writer's input/output byte deltas (and the
// LZSS stage's counters) into the wired registry, if any.
func (zw *Writer) flushObs() {
	k := deflateObs.Load()
	if k == nil {
		return
	}
	k.streamInBytes.Add(zw.obsIn - zw.obsInFlushed)
	zw.obsInFlushed = zw.obsIn
	k.streamOutBytes.Add(zw.w.n - zw.obsOutFlushed)
	zw.obsOutFlushed = zw.w.n
	zw.sc.FlushObs()
}

// blockCommands is how many LZSS commands accumulate before a block is
// cut: large enough for stable per-block statistics, small enough to
// bound latency and memory.
const blockCommands = 32768

// NewWriter starts a zlib stream on w with matching parameters p.
func NewWriter(w io.Writer, p lzss.Params) (*Writer, error) {
	sc, err := lzss.NewStreamCompressor(p)
	if err != nil {
		return nil, err
	}
	hdr, err := ZlibHeader(p.Window)
	if err != nil {
		return nil, err
	}
	cw := &countWriter{w: w}
	if _, err := cw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{
		w:      cw,
		bw:     bitio.NewWriter(cw),
		sc:     sc,
		adler:  NewAdler32(),
		window: p.Window,
	}, nil
}

// Write implements io.Writer.
func (zw *Writer) Write(p []byte) (int, error) {
	if zw.err != nil {
		return 0, zw.err
	}
	if zw.closed {
		return 0, fmt.Errorf("deflate: write after Close")
	}
	zw.adler.Write(p)
	zw.obsIn += int64(len(p))
	zw.pending = append(zw.pending, zw.sc.Write(p)...)
	for len(zw.pending) >= blockCommands {
		if err := zw.emitBlock(zw.pending[:blockCommands], false); err != nil {
			return 0, err
		}
		zw.pending = zw.pending[blockCommands:]
	}
	return len(p), nil
}

// emitBlock writes one block, choosing the cheaper of fixed/dynamic.
func (zw *Writer) emitBlock(cmds []token.Command, final bool) error {
	if k := deflateObs.Load(); k != nil {
		k.streamBlocks.Inc()
	}
	plan := planDynamic(cmds)
	dynBits := plan.headerBits() + plan.bodyBits(cmds)
	fixBits := 7 // end-of-block
	for _, c := range cmds {
		fixBits += CommandBits(c)
	}
	if dynBits < fixBits {
		if err := plan.emit(zw.bw, cmds, final); err != nil {
			zw.err = err
			return err
		}
	} else {
		e := NewEncoder(zw.bw)
		e.BeginBlock(final)
		if err := e.EncodeAll(cmds); err != nil {
			zw.err = err
			return err
		}
		e.EndBlock()
	}
	if err := zw.bw.Err(); err != nil {
		zw.err = err
	}
	return zw.err
}

// Flush emits everything written so far as complete, byte-aligned
// Deflate blocks (ZLib's Z_SYNC_FLUSH): the LZSS stage processes its
// buffered tail, the pending commands become a block, and an empty
// stored block re-aligns the bit stream so a reader sees all data
// without waiting for Close. Compression at the flush point degrades
// slightly, as with any sync flush.
func (zw *Writer) Flush() error {
	if zw.err != nil {
		return zw.err
	}
	if zw.closed {
		return fmt.Errorf("deflate: flush after Close")
	}
	if k := deflateObs.Load(); k != nil {
		k.streamFlushes.Inc()
	}
	zw.pending = append(zw.pending, zw.sc.Flush()...)
	if len(zw.pending) > 0 {
		if err := zw.emitBlock(zw.pending, false); err != nil {
			return err
		}
		zw.pending = zw.pending[:0]
	}
	// Empty stored block: byte alignment + a visible flush marker.
	zw.bw.WriteBool(false)
	zw.bw.WriteBits(0b00, 2)
	zw.bw.AlignByte()
	zw.bw.WriteBits(0, 16)
	zw.bw.WriteBits(0xFFFF, 16)
	if err := zw.bw.Flush(); err != nil {
		zw.err = err
	}
	zw.flushObs()
	return zw.err
}

// Close flushes the final block and the Adler-32 trailer.
func (zw *Writer) Close() error {
	if zw.err != nil {
		return zw.err
	}
	if zw.closed {
		return nil
	}
	zw.closed = true
	zw.pending = append(zw.pending, zw.sc.Close()...)
	// Emit everything left as the final block (an empty final block is
	// legal and needed for empty streams).
	if err := zw.emitBlock(zw.pending, true); err != nil {
		return err
	}
	zw.pending = nil
	if err := zw.bw.Flush(); err != nil {
		zw.err = err
		return err
	}
	sum := zw.adler.Sum32()
	_, err := zw.w.Write([]byte{byte(sum >> 24), byte(sum >> 16), byte(sum >> 8), byte(sum)})
	zw.err = err
	zw.flushObs()
	return err
}

// StreamInflater is an incremental raw-Deflate decoder implementing
// io.Reader. It runs the inflate core in chunks into a window that
// keeps the 32 KiB of history back-references may reach, and serves
// Read calls from the window.
type StreamInflater struct {
	f   *inflater
	win []byte // history, then decoded bytes not yet read
	pos int    // win[pos:] is unread
	err error
}

// streamHistory is how much output the window keeps once read: the
// longest Deflate match distance. Each chunk decodes until the window
// holds twice that.
const streamHistory = 32768

// NewStreamInflater decodes the raw Deflate stream from r.
func NewStreamInflater(r io.Reader) *StreamInflater {
	return &StreamInflater{
		f: newInflater(bitio.NewReader(r), DecodeLimits{}, 0),
		// Room for the match that crosses the chunk's end, and the
		// word copies' slack past it.
		win: make([]byte, 0, 2*streamHistory+token.MaxMatch+8),
	}
}

// Read implements io.Reader.
func (d *StreamInflater) Read(p []byte) (int, error) {
	for d.pos == len(d.win) {
		if d.err != nil {
			return 0, d.err
		}
		if d.f.state == stateDone {
			d.err = io.EOF
			continue
		}
		if k := len(d.win) - streamHistory; k > 0 {
			copy(d.win, d.win[k:])
			d.win, d.pos = d.win[:streamHistory], streamHistory
		}
		d.win, d.err = d.f.inflate(d.win, 2*streamHistory)
	}
	n := copy(p, d.win[d.pos:])
	d.pos += n
	return n, nil
}

// Reader is the streaming zlib (RFC 1950) decompressor: header check,
// incremental inflate, Adler-32 verification at end of stream.
type Reader struct {
	d     *StreamInflater
	adler *Adler32
	eof   bool
	err   error
}

// NewReader parses the zlib header from r and returns a streaming
// decompressor for the body.
func NewReader(r io.Reader) (*Reader, error) {
	d := NewStreamInflater(r)
	cmf, err := d.f.br.ReadBits(8)
	if err != nil {
		return nil, normEOF(err)
	}
	flg, err := d.f.br.ReadBits(8)
	if err != nil {
		return nil, normEOF(err)
	}
	if cmf&0x0F != 8 {
		return nil, fmt.Errorf("%w: compression method %d", ErrCorrupt, cmf&0x0F)
	}
	if (cmf*256+flg)%31 != 0 {
		return nil, fmt.Errorf("%w: zlib header check", ErrCorrupt)
	}
	if flg&0x20 != 0 {
		return nil, fmt.Errorf("%w: preset dictionary unsupported", ErrCorrupt)
	}
	return &Reader{d: d, adler: NewAdler32()}, nil
}

// Read implements io.Reader; on clean EOF the Adler-32 trailer has been
// verified.
func (zr *Reader) Read(p []byte) (int, error) {
	if zr.err != nil {
		return 0, zr.err
	}
	n, err := zr.d.Read(p)
	zr.adler.Write(p[:n])
	if err == io.EOF && !zr.eof {
		zr.eof = true
		if terr := zr.checkTrailer(); terr != nil {
			zr.err = terr
			return n, terr
		}
	}
	if err != nil {
		zr.err = err
	}
	return n, err
}

func (zr *Reader) checkTrailer() error {
	zr.d.f.br.AlignByte()
	var want uint32
	for i := 0; i < 4; i++ {
		v, err := zr.d.f.br.ReadBits(8)
		if err != nil {
			return fmt.Errorf("%w: truncated adler trailer: %w", ErrCorrupt, io.ErrUnexpectedEOF)
		}
		want = want<<8 | v
	}
	if got := zr.adler.Sum32(); got != want {
		return fmt.Errorf("%w: adler32 %08x != %08x", ErrCorrupt, got, want)
	}
	return nil
}
