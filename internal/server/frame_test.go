package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"

	"lzssfpga/internal/etherlink"
)

// encode is the test-side shorthand for a valid wire message.
func encode(t *testing.T, m *Message) []byte {
	t.Helper()
	buf, err := AppendMessage(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestMessageRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	payloads := [][]byte{
		nil,
		{},
		{0x42},
		bytes.Repeat([]byte("staging "), 64),
		make([]byte, etherlink.MaxChunk),     // exactly one full frame
		make([]byte, etherlink.MaxChunk+1),   // spills into a second frame
		make([]byte, 3*etherlink.MaxChunk+7), // multi-frame
	}
	for _, p := range payloads[4:] {
		rng.Read(p)
	}
	for i, p := range payloads {
		for _, op := range []byte{OpCompress, OpDecompress, OpResponse} {
			for _, traceID := range []string{"", "00f00dd00d5ca1ab"} {
				for _, reqID := range []struct {
					has bool
					id  uint32
				}{{false, 0}, {true, 0}, {true, 0xDEADBEEF}} {
					for _, dictID := range []string{"", "wiki", "abcdefghijklmnopqrstuvwxyz-01234"} {
						m := &Message{Op: op, Status: StatusOK, Payload: p, TraceID: traceID,
							ReqID: reqID.id, HasReqID: reqID.has, DictID: dictID}
						got, err := ParseMessage(encode(t, m), 1<<20)
						if err != nil {
							t.Fatalf("payload %d op %d: %v", i, op, err)
						}
						if got.Op != op || !bytes.Equal(got.Payload, p) || got.TraceID != traceID ||
							got.HasReqID != reqID.has || got.ReqID != reqID.id || got.DictID != dictID {
							t.Fatalf("payload %d op %d: round trip mismatch", i, op)
						}
					}
				}
			}
		}
	}
}

func TestReadMessageCleanEOF(t *testing.T) {
	if _, err := ReadMessage(bytes.NewReader(nil), 1<<20); err != io.EOF {
		t.Fatalf("empty reader: want io.EOF, got %v", err)
	}
}

// TestParseMessageRejections is the table of hostile inputs: every one
// must come back as a wrapped ErrCorrupt, never a panic.
func TestParseMessageRejections(t *testing.T) {
	valid := encode(t, &Message{Op: OpCompress, Payload: []byte("hello, staging link")})
	big := encode(t, &Message{Op: OpCompress, Payload: bytes.Repeat([]byte{0xAB}, 4096)})

	corrupt := func(mutate func(b []byte) []byte) []byte {
		return mutate(append([]byte(nil), valid...))
	}
	cases := []struct {
		name     string
		data     []byte
		cap      int
		tooLarge bool
	}{
		{name: "empty", data: nil, cap: 1 << 20},
		{name: "truncated header", data: valid[:headerLen-3], cap: 1 << 20},
		{name: "bad magic", data: corrupt(func(b []byte) []byte { b[0] = 'X'; return b }), cap: 1 << 20},
		{name: "bad version", data: corrupt(func(b []byte) []byte { b[4] = 9; return b }), cap: 1 << 20},
		{name: "unknown op", data: corrupt(func(b []byte) []byte { b[5] = 77; return b }), cap: 1 << 20},
		// Flag bit set without re-stamping the CRC: the CRC covers the
		// flags byte, so tampering is caught even before the missing
		// trace-ID field would be.
		{name: "flag set without CRC", data: corrupt(func(b []byte) []byte { b[7] = 1; return b }), cap: 1 << 20},
		{name: "unknown flag bit", data: corrupt(func(b []byte) []byte {
			b[7] = 8
			binary.BigEndian.PutUint32(b[12:16], etherlink.CRC32Update(0, b[0:12]))
			return b
		}), cap: 1 << 20},
		// The dict flag with no dict field present: the parser reads the
		// first payload byte as the ID length ('h' = 104 > 32) and must
		// reject rather than swallow payload bytes as a name.
		{name: "dict flag without field", data: corrupt(func(b []byte) []byte {
			b[7] = 4
			binary.BigEndian.PutUint32(b[12:16], etherlink.CRC32Update(0, b[0:12]))
			return b
		}), cap: 1 << 20},
		{name: "truncated dict ID length", data: func() []byte {
			b := encode(t, &Message{Op: OpCompress, Payload: []byte("negotiated"), DictID: "wiki"})
			return b[:headerLen] // header announces the field, nothing follows
		}(), cap: 1 << 20},
		{name: "truncated dict ID body", data: func() []byte {
			b := encode(t, &Message{Op: OpCompress, Payload: []byte("negotiated"), DictID: "wiki"})
			return b[:headerLen+2] // length byte + 1 of 4 name bytes
		}(), cap: 1 << 20},
		{name: "zero dict ID length", data: func() []byte {
			b := encode(t, &Message{Op: OpCompress, Payload: []byte("negotiated"), DictID: "w"})
			b[headerLen] = 0 // the field, once announced, must carry a name
			return b
		}(), cap: 1 << 20},
		{name: "header CRC mismatch", data: corrupt(func(b []byte) []byte { b[12] ^= 0xFF; return b }), cap: 1 << 20},
		{name: "oversize length", data: big, cap: 1024, tooLarge: true},
		{name: "truncated frame", data: valid[:len(valid)-2], cap: 1 << 20},
		{name: "truncated trace ID", data: func() []byte {
			b := encode(t, &Message{Op: OpResponse, Payload: []byte("traced"), TraceID: "00f00dd00d5ca1ab"})
			return b[:headerLen+5] // cut mid trace-ID field
		}(), cap: 1 << 20},
		{name: "truncated request ID", data: func() []byte {
			b := encode(t, &Message{Op: OpResponse, Payload: []byte("piped"), ReqID: 7, HasReqID: true})
			return b[:headerLen+2] // cut mid request-ID field
		}(), cap: 1 << 20},
		{name: "flipped frame byte", data: corrupt(func(b []byte) []byte { b[headerLen+frameHdrLen] ^= 0x01; return b }), cap: 1 << 20},
	}
	// Structural frame attacks need hand-built frame sections on a
	// valid header.
	hdrFor := func(total uint32, extra func(h []byte)) []byte {
		h := make([]byte, headerLen)
		copy(h[0:4], protocolMagic)
		h[4] = protocolVer
		h[5] = OpCompress
		binary.BigEndian.PutUint32(h[8:12], total)
		if extra != nil {
			extra(h)
		}
		binary.BigEndian.PutUint32(h[12:16], etherlink.CRC32Update(0, h[0:12]))
		return h
	}
	frame := func(seq uint32, chunk []byte) []byte {
		f := etherlink.Frame{Seq: seq, Payload: chunk}
		fcs := fcsOf(f)
		b := make([]byte, 0, frameHdrLen+len(chunk)+frameFCSLen)
		var fh [frameHdrLen]byte
		binary.BigEndian.PutUint32(fh[0:4], seq)
		binary.BigEndian.PutUint16(fh[4:6], uint16(len(chunk)))
		b = append(b, fh[:]...)
		b = append(b, chunk...)
		var ft [frameFCSLen]byte
		binary.BigEndian.PutUint32(ft[:], fcs)
		return append(b, ft[:]...)
	}
	chunkA := bytes.Repeat([]byte{1}, etherlink.MaxChunk)
	chunkB := bytes.Repeat([]byte{2}, 10)
	total := uint32(len(chunkA) + len(chunkB))
	cases = append(cases,
		struct {
			name     string
			data     []byte
			cap      int
			tooLarge bool
		}{
			name: "duplicate frame id",
			data: append(append(hdrFor(total, nil), frame(0, chunkA)...), frame(0, chunkB)...),
			cap:  1 << 20,
		},
		struct {
			name     string
			data     []byte
			cap      int
			tooLarge bool
		}{
			name: "frame seq out of range",
			data: append(append(hdrFor(total, nil), frame(0, chunkA)...), frame(9, chunkB)...),
			cap:  1 << 20,
		},
		struct {
			name     string
			data     []byte
			cap      int
			tooLarge bool
		}{
			// A zero-length frame where the announced total demands
			// payload: the reassembled size can't match.
			name: "zero-length frame under nonzero total",
			data: append(append(hdrFor(total, nil), frame(0, chunkA)...), frame(1, nil)...),
			cap:  1 << 20,
		},
		struct {
			name     string
			data     []byte
			cap      int
			tooLarge bool
		}{
			name: "oversize frame chunk field",
			data: func() []byte {
				b := append(hdrFor(total, nil), frame(0, chunkA)...)
				// Claim a chunk longer than the MTU budget.
				fh := make([]byte, frameHdrLen)
				binary.BigEndian.PutUint32(fh[0:4], 1)
				binary.BigEndian.PutUint16(fh[4:6], uint16(etherlink.MaxChunk+1))
				return append(b, fh...)
			}(),
			cap: 1 << 20,
		},
	)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseMessage(tc.data, tc.cap)
			if err == nil {
				t.Fatal("hostile input accepted")
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error does not wrap ErrCorrupt: %v", err)
			}
			if tc.tooLarge != errors.Is(err, ErrTooLarge) {
				t.Fatalf("ErrTooLarge match = %v, want %v (%v)", !tc.tooLarge, tc.tooLarge, err)
			}
		})
	}
}

// fcsOf recomputes a frame's check sequence the way etherlink.Segment
// stamps it (Frame.computeFCS is unexported; Segment on the one-chunk
// payload reproduces it).
func fcsOf(f etherlink.Frame) uint32 {
	frames, err := etherlink.Segment(f.Payload)
	if err != nil || len(frames) != 1 {
		panic("fcsOf: unexpected segmentation")
	}
	// Segment always numbers its single frame 0; re-stamp other seqs by
	// exploiting that the FCS covers the sequence word linearly is not
	// possible, so restrict helpers to the sequence numbers tests use.
	if f.Seq == 0 {
		return frames[0].FCS
	}
	// For non-zero sequence numbers build the FCS from scratch exactly
	// as etherlink does: synthetic header, sequence word, payload.
	var hdr [18]byte
	hdr[12], hdr[13] = 0x88, 0xB5
	binary.BigEndian.PutUint32(hdr[14:], f.Seq)
	crc := etherlink.CRC32Update(0, hdr[:])
	return etherlink.CRC32Update(crc, f.Payload)
}

// FuzzFrameParser feeds arbitrary bytes to the wire parser: it must
// reject or decode, never panic, and every rejection must wrap
// ErrCorrupt. Accepted messages must re-encode and re-parse to the
// same payload.
func FuzzFrameParser(f *testing.F) {
	valid, _ := AppendMessage(nil, &Message{Op: OpCompress, Payload: []byte("seed payload")})
	f.Add(valid)
	empty, _ := AppendMessage(nil, &Message{Op: OpResponse, Status: StatusBusy})
	f.Add(empty)
	traced, _ := AppendMessage(nil, &Message{Op: OpResponse, Payload: []byte("ok"), TraceID: "0123456789abcdef"})
	f.Add(traced)
	piped, _ := AppendMessage(nil, &Message{Op: OpResponse, Payload: []byte("ok"), TraceID: "0123456789abcdef", ReqID: 0xC0FFEE, HasReqID: true})
	f.Add(piped)
	dicted, _ := AppendMessage(nil, &Message{Op: OpCompress, Payload: []byte("ok"), DictID: "wiki", ReqID: 1, HasReqID: true})
	f.Add(dicted)
	two, _ := AppendMessage(nil, &Message{Op: OpDecompress, Payload: bytes.Repeat([]byte{7}, etherlink.MaxChunk+3)})
	f.Add(two)
	f.Add(valid[:headerLen-1])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		const cap = 64 << 10
		m, err := ParseMessage(data, cap)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		if len(m.Payload) > cap {
			t.Fatalf("accepted %d-byte payload over the %d cap", len(m.Payload), cap)
		}
		re, err := AppendMessage(nil, m)
		if err != nil {
			t.Fatalf("re-encoding accepted message: %v", err)
		}
		m2, err := ParseMessage(re, cap)
		if err != nil {
			t.Fatalf("re-parsing re-encoded message: %v", err)
		}
		if m2.Op != m.Op || m2.Status != m.Status || !bytes.Equal(m2.Payload, m.Payload) || m2.TraceID != m.TraceID ||
			m2.ReqID != m.ReqID || m2.HasReqID != m.HasReqID || m2.DictID != m.DictID {
			t.Fatal("re-encoded message decoded differently")
		}
	})
}

// TestReadMessageCapRejectionKeepsReqID: a cap rejection returns the
// header parsed so far, request ID included, so the serving loop can
// stamp its rejection with the ID a pipelined client is waiting on.
func TestReadMessageCapRejectionKeepsReqID(t *testing.T) {
	wire, err := AppendMessage(nil, &Message{Op: OpCompress, Payload: make([]byte, 4096), ReqID: 77, HasReqID: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := ReadMessage(bytes.NewReader(wire), 1024)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
	if m == nil || m.Op != OpCompress || !m.HasReqID || m.ReqID != 77 || m.Payload != nil {
		t.Fatalf("cap rejection returned header %+v, want op %d with request ID 77 and no payload", m, OpCompress)
	}
}
