package lzss

import (
	"fmt"

	"lzssfpga/internal/token"
)

// StreamCompressor is the incremental form of Compress: bytes go in via
// Write, commands come out as soon as they are decided. It is a sliding
// buffer — one to three windows of history plus the undecided input —
// driving the same Matcher and the same greedy loop as every other
// front end; the matcher rotates its tables as the buffer slides
// (Matcher.slide).
//
// The command stream and the Stats are identical to a whole-buffer
// Compress over the concatenated input: matching at a position is
// deferred until either streamLookahead bytes beyond it are buffered or
// Close declares end of input, so no match decision is ever made on
// partial knowledge.
type StreamCompressor struct {
	m   *Matcher
	buf []byte
	pos int // next undecided index within buf
	// miss is the greedy loop's consecutive-failed-probe count, carried
	// across Writes so chunking cannot change the skip-stride schedule.
	miss   int
	closed bool
}

// streamLookahead is how many bytes beyond the current position must be
// buffered before matching proceeds mid-stream: a maximal match plus
// one hash window.
const streamLookahead = token.MaxMatch + token.MinMatch + 1

// streamPiece bounds how much of one Write is buffered before it is
// matched, so however large the write, the buffer stays near three
// windows plus one piece and positions stay far inside the chain
// tables' int32 range.
const streamPiece = 256 << 10

// NewStreamCompressor validates p (greedy only — lazy deferral would
// need one more byte of latency and is not what the hardware does).
func NewStreamCompressor(p Params) (*StreamCompressor, error) {
	if p.SA {
		return nil, fmt.Errorf("lzss: the suffix-array matcher is block-oriented; streaming requires a chain-matcher level")
	}
	m, err := NewMatcher(nil, p, nil)
	if err != nil {
		return nil, err
	}
	return &StreamCompressor{m: m, buf: make([]byte, 0, 4*p.Window+streamLookahead)}, nil
}

// Stats returns the accumulated operation counters.
func (s *StreamCompressor) Stats() Stats { return *s.m.Stats() }

// FlushObs publishes the counters and histograms accumulated since the
// previous flush into the registry wired by SetObservability (no-op
// without one). The streaming zlib writer calls it on Flush and Close.
func (s *StreamCompressor) FlushObs() { s.m.FlushObs() }

// Write absorbs data and returns the commands that became decidable.
// The returned slice is freshly allocated and owned by the caller.
func (s *StreamCompressor) Write(data []byte) []token.Command {
	if s.closed {
		panic("lzss: Write after Close")
	}
	s.m.stats.InputBytes += int64(len(data))
	var cmds []token.Command
	for {
		n := min(len(data), streamPiece)
		s.buf = append(s.buf, data[:n]...)
		data = data[n:]
		cmds = s.drain(cmds, len(s.buf)-streamLookahead)
		if len(data) == 0 {
			return cmds
		}
	}
}

// Close declares end of input and returns the final commands.
func (s *StreamCompressor) Close() []token.Command {
	if s.closed {
		return nil
	}
	s.closed = true
	return s.drain(nil, len(s.buf))
}

// Flush processes every buffered byte immediately, without waiting for
// the usual lookahead. Matching quality at the flushed tail degrades
// slightly (candidates can not extend into data that has not arrived),
// exactly as ZLib's sync flush degrades it; the stream stays valid and
// subsequent Writes continue with full history.
func (s *StreamCompressor) Flush() []token.Command {
	if s.closed {
		return nil
	}
	return s.drain(nil, len(s.buf))
}

// drain decides every position before stop, appending to cmds, then
// slides the buffer once three windows have been processed, keeping
// between one and two windows of history.
func (s *StreamCompressor) drain(cmds []token.Command, stop int) []token.Command {
	if stop <= s.pos {
		return cmds
	}
	if cmds == nil {
		cmds = reserve(nil, stop-s.pos)
	}
	// Rebind the matcher but keep its chains (Reset would clear them):
	// an append may have moved the buffer, but positions keep their
	// meaning.
	s.m.src = s.buf
	cmds, s.pos, s.miss = compressGreedy(s.m, s.buf, cmds, s.pos, stop, s.miss)
	if w := s.m.p.Window; s.pos >= 3*w {
		drop := (s.pos - w) &^ (w - 1)
		s.buf = append(s.buf[:0], s.buf[drop:]...)
		s.pos -= drop
		s.m.slide(s.buf, drop)
	}
	return cmds
}
