// Package etherlink models the front half of the paper's testbench: the
// PC sends the data block to the board over Ethernet, where it is
// staged into DDR2 before compression. The paper excludes this transfer
// from the compression timing; the model makes that explicit by
// reporting staging time separately, and it implements the wire-level
// details (frame segmentation, FCS) so the staging path is a real
// substrate rather than a stopwatch.
package etherlink

import (
	"fmt"
	"hash/crc32"
	"math"

	"lzssfpga/internal/checksum"
)

// Frame carries one Ethernet II frame of the staging transfer. Payload
// excludes the 4-byte FCS, which is computed over header+payload.
type Frame struct {
	Seq     uint32 // transfer sequence number (first payload word)
	Payload []byte
	FCS     uint32
}

// Framing constants (Ethernet II, no VLAN).
const (
	MTU           = 1500
	headerBytes   = 14 // dst MAC + src MAC + ethertype
	seqBytes      = 4  // our transfer protocol's sequence word
	fcsBytes      = 4
	interFrameGap = 12 // bytes of idle the MAC must leave
	preambleBytes = 8
	// MaxChunk is the usable data per frame.
	MaxChunk = MTU - seqBytes
)

// Segment splits a data block into frames, each carrying a sequence
// number and up to MaxChunk bytes, with a correct FCS. An empty block
// is encoded as one empty frame, so "zero bytes" is still a transfer
// the receiver can acknowledge. Blocks needing more frames than the
// uint32 sequence space can number are rejected rather than silently
// wrapping sequence numbers.
func Segment(data []byte) ([]Frame, error) {
	n, err := frameCount(len(data))
	if err != nil {
		return nil, err
	}
	frames := make([]Frame, 0, n)
	wireBytes := 0
	for i := 0; i < n; i++ {
		lo := i * MaxChunk
		hi := lo + MaxChunk
		if hi > len(data) {
			hi = len(data)
		}
		f := Frame{Seq: uint32(i), Payload: data[lo:hi]}
		f.FCS = f.computeFCS()
		frames = append(frames, f)
		wireBytes += f.WireBytes()
	}
	if k := etherObs.Load(); k != nil {
		k.frames.Add(int64(n))
		k.frameBytes.Add(int64(wireBytes))
	}
	return frames, nil
}

// frameCount is how many frames Segment cuts a block of size bytes
// into: one per MaxChunk bytes or part of them, and one for an empty
// block. It rejects a count the uint32 sequence space cannot number.
func frameCount(size int) (int, error) {
	n := max((size+MaxChunk-1)/MaxChunk, 1)
	if uint64(n) > math.MaxUint32 {
		return 0, fmt.Errorf("etherlink: %d bytes need %d frames, overflowing the uint32 sequence space", size, n)
	}
	return n, nil
}

// fcsSeed is the CRC state after the synthetic Ethernet-II header that
// every FCS covers first: zero MACs and ethertype 0x88B5 (local
// experimental).
var fcsSeed = checksum.CRC32Update(0, []byte{12: 0x88, 13: 0xB5})

// computeFCS covers the synthetic header, the big-endian sequence word
// and the payload. The sequence word is folded a byte at a time here:
// hash/crc32 calls through a function variable, so a word handed to it
// from the stack would cost a heap allocation per frame.
func (f Frame) computeFCS() uint32 {
	c := ^fcsSeed
	for shift := 24; shift >= 0; shift -= 8 {
		c = crc32.IEEETable[byte(c)^byte(f.Seq>>shift)] ^ c>>8
	}
	return checksum.CRC32Update(^c, f.Payload)
}

// Verify checks the FCS.
func (f Frame) Verify() bool {
	ok := f.computeFCS() == f.FCS
	if !ok {
		if k := etherObs.Load(); k != nil {
			k.fcsErrors.Inc()
		}
	}
	return ok
}

// WireBytes is the frame's cost on the wire including preamble, header,
// FCS and inter-frame gap.
func (f Frame) WireBytes() int {
	return preambleBytes + headerBytes + seqBytes + len(f.Payload) + fcsBytes + interFrameGap
}

// Reassemble validates and reorders frames back into a data block of
// the announced size (the testbench protocol sends the block length
// ahead of the frames, so truncated transfers are detectable). Frames
// may arrive in any order; duplicate, out-of-range and missing
// sequence numbers are rejected, and the chunks must add up to total.
// Frame payloads may be views into the caller's receive buffer: the
// block is copied out into a slice of its own.
func Reassemble(frames []Frame, total int) ([]byte, error) {
	if total == 0 {
		// Segment encodes zero bytes as one empty frame: the empty
		// transfer round-trips explicitly rather than falling out of the
		// general arithmetic below.
		if len(frames) != 1 {
			return nil, fmt.Errorf("etherlink: got %d frames, expected the single empty frame of a 0-byte block", len(frames))
		}
		f := frames[0]
		if !f.Verify() {
			return nil, fmt.Errorf("etherlink: frame %d: FCS mismatch", f.Seq)
		}
		if f.Seq != 0 || len(f.Payload) != 0 {
			return nil, fmt.Errorf("etherlink: 0-byte block carried frame seq %d with %d payload bytes", f.Seq, len(f.Payload))
		}
		return []byte{}, nil
	}
	want := (total + MaxChunk - 1) / MaxChunk
	if len(frames) != want {
		return nil, fmt.Errorf("etherlink: got %d frames, expected %d for %d bytes", len(frames), want, total)
	}
	ordered := make([]*Frame, len(frames))
	for i := range frames {
		f := &frames[i]
		if !f.Verify() {
			return nil, fmt.Errorf("etherlink: frame %d: FCS mismatch", f.Seq)
		}
		if int(f.Seq) >= len(frames) {
			return nil, fmt.Errorf("etherlink: frame sequence %d out of range", f.Seq)
		}
		if ordered[f.Seq] != nil {
			return nil, fmt.Errorf("etherlink: duplicate frame %d", f.Seq)
		}
		ordered[f.Seq] = f
	}
	out := make([]byte, 0, total)
	for i, f := range ordered {
		if f == nil {
			return nil, fmt.Errorf("etherlink: missing frame %d", i)
		}
		out = append(out, f.Payload...)
	}
	if len(out) != total {
		return nil, fmt.Errorf("etherlink: reassembled %d bytes, announced %d", len(out), total)
	}
	return out, nil
}

// Link models the staging network: a point-to-point Ethernet at the
// given line rate feeding the board.
type Link struct {
	// BitsPerSecond is the line rate (1 GbE on the ML-507).
	BitsPerSecond float64
}

// ML507Link is the board's tri-speed MAC at gigabit.
func ML507Link() Link { return Link{BitsPerSecond: 1e9} }

// TransferSeconds is the wall-clock time to move data (wire overhead
// included) — the component the paper excludes from compression time.
func (l Link) TransferSeconds(data []byte) float64 {
	if l.BitsPerSecond <= 0 {
		return 0
	}
	frames, err := Segment(data)
	if err != nil {
		return 0
	}
	total := 0
	for _, f := range frames {
		total += f.WireBytes()
	}
	return float64(total*8) / l.BitsPerSecond
}

// EffectiveMBps is the goodput after framing overhead.
func (l Link) EffectiveMBps(data []byte) float64 {
	s := l.TransferSeconds(data)
	if s == 0 {
		return 0
	}
	return float64(len(data)) / s / 1e6
}
