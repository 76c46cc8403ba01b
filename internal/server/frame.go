// Package server is the network serving layer: a long-running
// compression daemon (cmd/lzssd) exposing the persistent sharded
// engine over two fronts —
//
//   - HTTP/1.1: POST /compress streams a zlib stream back while later
//     segments are still compressing; POST /decompress inflates
//     untrusted input through the hardened limited decoder;
//   - a raw framed TCP protocol that mirrors the paper's etherlink
//     staging format end-to-end: every message travels as Ethernet-II
//     shaped frames (sequence word, ≤1496-byte chunk, FCS over the
//     synthetic header and payload), reassembled and FCS-verified with
//     the same internal/etherlink machinery the testbench uses.
//
// Both fronts multiplex concurrent clients onto the shared engine via
// SubmitAndStream, bounded by per-request and per-connection byte caps
// and a max-in-flight backpressure gate, and drain gracefully on
// shutdown (stop accepting, finish in-flight, bounded by a deadline).
package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"

	"lzssfpga/internal/etherlink"
	"lzssfpga/internal/obs"
)

// Wire protocol: one message is a 16-byte header, an optional trace-ID
// field, then the payload cut into etherlink frames.
//
//	offset  size  field
//	0       4     magic "LZSD"
//	4       1     version (1)
//	5       1     op: 1=compress 2=decompress 3=response
//	6       1     status (responses; 0 in requests)
//	7       1     flags: bit 0 = trace-ID field present, bit 1 =
//	              request-ID field present, bit 2 = dictionary-ID
//	              field present; all other bits must be 0 (this byte
//	              was "reserved, must be 0" before flags existed, so
//	              old peers interoperate)
//	8       4     payload length, big-endian
//	12      4     CRC-32 over bytes 0..11 (etherlink polynomial),
//	              so the flags byte is integrity-checked
//
// optional fields follow the header in flag-bit order: when flag bit 1
// is set, a 4-byte big-endian request ID comes first; when flag bit 0
// is set, obs.TraceIDLen (16) bytes of ASCII trace ID follow it; when
// flag bit 2 is set, the dictionary-ID field comes last — one length
// byte (1..32) then that many bytes of dictionary name ([a-z0-9-]).
// On a request the dictionary ID names the preset dictionary to
// compress (or decompress) against; the server echoes the negotiated
// ID on the response, and a name the server does not hold is answered
// with StatusUnknownDict — a deterministic client error, like
// StatusCorrupt, never retried.
//
// The request ID is the multiplexing key: a client that pipelines
// concurrent requests on one connection stamps each with a distinct ID,
// the server serves them concurrently and echoes the ID on each
// response, and the client matches responses back to callers by ID —
// responses may arrive in any order. Requests without the field keep
// the strict one-at-a-time request/response discipline. Responses carry
// the server-assigned trace ID in the trace field; requests normally
// send no trace field.
//
// frames follow, ceil(len/MaxChunk) of them (an empty payload is one
// empty frame, exactly as etherlink.Segment encodes a 0-byte block):
//
//	offset  size  field
//	0       4     sequence number, big-endian
//	4       2     chunk length n (≤ etherlink.MaxChunk), big-endian
//	6       n     chunk
//	6+n     4     FCS (etherlink frame check: synthetic Ethernet-II
//	              header + sequence word + chunk)
const (
	headerLen     = 16
	frameHdrLen   = 6
	frameFCSLen   = 4
	protocolMagic = "LZSD"
	protocolVer   = 1
)

// Message ops.
const (
	OpCompress   = 1
	OpDecompress = 2
	OpResponse   = 3
)

// flagTraceID in header byte 7 announces the fixed-width trace-ID field
// between the header and the first frame; flagReqID announces the
// 4-byte request-ID field (the pipelining key) before it; flagDict
// announces the variable-width dictionary-ID field after the trace ID
// (mirroring the reqID flag pattern: flag bit plus optional field).
const (
	flagTraceID = 0x01
	flagReqID   = 0x02
	flagDict    = 0x04
)

// maxDictIDLen caps the wire dictionary-ID field, matching
// dict.MaxNameLen (the registry refuses longer names at registration).
const maxDictIDLen = 32

// Response status codes (header byte 6).
const (
	StatusOK          = 0
	StatusCorrupt     = 1
	StatusTooLarge    = 2
	StatusBusy        = 3
	StatusDraining    = 4
	StatusInternal    = 5
	StatusConnLimit   = 6
	StatusUnknownDict = 7
)

// Sentinel errors of the serving layer. Every frame-parser rejection
// wraps ErrCorrupt; cap rejections additionally match ErrTooLarge, and
// the backpressure gate returns ErrBusy. ErrUnknownDict reports a
// request negotiating a dictionary ID the server does not hold — a
// deterministic client error in the StatusOK-family exchange (the
// connection stays healthy), never a retryable one.
var (
	ErrCorrupt     = errors.New("server: corrupt frame")
	ErrTooLarge    = errors.New("server: message exceeds byte cap")
	ErrBusy        = errors.New("server: at capacity")
	ErrDraining    = errors.New("server: draining")
	ErrUnknownDict = errors.New("server: unknown dictionary")
)

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// Message is one protocol unit: a request (OpCompress/OpDecompress with
// the data to transform) or a response (OpResponse with a status and
// either the transformed bytes or an error text).
type Message struct {
	Op      byte
	Status  byte
	Payload []byte
	// TraceID is the request's trace ID (empty = no trace field on the
	// wire). Non-empty IDs must be exactly obs.TraceIDLen bytes; the
	// server stamps every response with the ID it assigned the request.
	TraceID string
	// ReqID is the pipelining key, carried when HasReqID is set: a
	// client-chosen per-request ID the server echoes on the matching
	// response, so many requests can be in flight on one connection.
	ReqID    uint32
	HasReqID bool
	// DictID is the negotiated preset-dictionary name (empty = no dict
	// field on the wire): on a request, the dictionary to transform
	// against; on a response, the ID the server actually used.
	DictID string
}

// AppendMessage encodes m onto dst and returns the extended slice.
func AppendMessage(dst []byte, m *Message) ([]byte, error) {
	if len(m.Payload) > int(^uint32(0)) {
		return nil, fmt.Errorf("server: %d-byte payload overflows the length field", len(m.Payload))
	}
	var flags byte
	if m.TraceID != "" {
		if len(m.TraceID) != obs.TraceIDLen {
			return nil, fmt.Errorf("server: trace ID must be %d bytes, got %d", obs.TraceIDLen, len(m.TraceID))
		}
		flags |= flagTraceID
	}
	if m.HasReqID {
		flags |= flagReqID
	}
	if m.DictID != "" {
		if len(m.DictID) > maxDictIDLen {
			return nil, fmt.Errorf("server: dictionary ID %q over the %d-byte field cap", m.DictID, maxDictIDLen)
		}
		flags |= flagDict
	}
	var hdr [headerLen]byte
	copy(hdr[0:4], protocolMagic)
	hdr[4] = protocolVer
	hdr[5] = m.Op
	hdr[6] = m.Status
	hdr[7] = flags
	binary.BigEndian.PutUint32(hdr[8:12], uint32(len(m.Payload)))
	binary.BigEndian.PutUint32(hdr[12:16], etherlink.CRC32Update(0, hdr[0:12]))
	dst = append(dst, hdr[:]...)
	if flags&flagReqID != 0 {
		var rb [4]byte
		binary.BigEndian.PutUint32(rb[:], m.ReqID)
		dst = append(dst, rb[:]...)
	}
	if flags&flagTraceID != 0 {
		dst = append(dst, m.TraceID...)
	}
	if flags&flagDict != 0 {
		dst = append(dst, byte(len(m.DictID)))
		dst = append(dst, m.DictID...)
	}
	frames, err := etherlink.Segment(m.Payload)
	if err != nil {
		return nil, err
	}
	var fh [frameHdrLen]byte
	var ft [frameFCSLen]byte
	for _, f := range frames {
		binary.BigEndian.PutUint32(fh[0:4], f.Seq)
		binary.BigEndian.PutUint16(fh[4:6], uint16(len(f.Payload)))
		dst = append(dst, fh[:]...)
		dst = append(dst, f.Payload...)
		binary.BigEndian.PutUint32(ft[:], f.FCS)
		dst = append(dst, ft[:]...)
	}
	return dst, nil
}

// WriteMessage encodes m onto w in one Write call (so a message is
// never interleaved with another writer's bytes on the same socket).
func WriteMessage(w io.Writer, m *Message) error {
	buf, err := AppendMessage(nil, m)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadMessage reads one message from r, rejecting any payload larger
// than maxPayload bytes. A reader that ends before the first header
// byte returns io.EOF (the clean between-messages close); any other
// malformation — truncated header or frame, bad magic/version/CRC,
// oversize or duplicate or missing frames, FCS mismatch — returns an
// error wrapping ErrCorrupt and never panics. Cap rejections also
// match ErrTooLarge, and return the header parsed so far (op, status
// and request ID, no payload) alongside the error, so a server can
// stamp its rejection with the request ID a pipelined client matches
// responses by.
func ReadMessage(r io.Reader, maxPayload int) (*Message, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: truncated header: %w", ErrCorrupt, io.ErrUnexpectedEOF)
	}
	if !bytes.Equal(hdr[0:4], []byte(protocolMagic)) {
		return nil, corruptf("bad magic %q", hdr[0:4])
	}
	if hdr[4] != protocolVer {
		return nil, corruptf("unsupported version %d", hdr[4])
	}
	op := hdr[5]
	if op != OpCompress && op != OpDecompress && op != OpResponse {
		return nil, corruptf("unknown op %d", op)
	}
	flags := hdr[7]
	if flags&^byte(flagTraceID|flagReqID|flagDict) != 0 {
		return nil, corruptf("unknown header flags %#02x", flags)
	}
	total := binary.BigEndian.Uint32(hdr[8:12])
	if want, got := etherlink.CRC32Update(0, hdr[0:12]), binary.BigEndian.Uint32(hdr[12:16]); want != got {
		return nil, corruptf("header CRC mismatch: computed %08x, carried %08x", want, got)
	}
	var reqID uint32
	hasReqID := flags&flagReqID != 0
	if hasReqID {
		var rb [4]byte
		if _, err := io.ReadFull(r, rb[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated request ID: %w", ErrCorrupt, io.ErrUnexpectedEOF)
		}
		reqID = binary.BigEndian.Uint32(rb[:])
	}
	if maxPayload >= 0 && uint64(total) > uint64(maxPayload) {
		hdrOnly := &Message{Op: op, Status: hdr[6], ReqID: reqID, HasReqID: hasReqID}
		return hdrOnly, fmt.Errorf("%w: %w: %d-byte payload over the %d cap", ErrCorrupt, ErrTooLarge, total, maxPayload)
	}
	var traceID string
	if flags&flagTraceID != 0 {
		var tb [obs.TraceIDLen]byte
		if _, err := io.ReadFull(r, tb[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated trace ID: %w", ErrCorrupt, io.ErrUnexpectedEOF)
		}
		traceID = string(tb[:])
	}
	var dictID string
	if flags&flagDict != 0 {
		var lb [1]byte
		if _, err := io.ReadFull(r, lb[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated dictionary-ID length: %w", ErrCorrupt, io.ErrUnexpectedEOF)
		}
		n := int(lb[0])
		if n == 0 || n > maxDictIDLen {
			return nil, corruptf("dictionary-ID length %d out of [1,%d]", n, maxDictIDLen)
		}
		db := make([]byte, n)
		if _, err := io.ReadFull(r, db); err != nil {
			return nil, fmt.Errorf("%w: truncated dictionary ID: %w", ErrCorrupt, io.ErrUnexpectedEOF)
		}
		dictID = string(db)
	}
	nFrames := (int(total) + etherlink.MaxChunk - 1) / etherlink.MaxChunk
	if nFrames == 0 {
		nFrames = 1
	}
	frames := make([]etherlink.Frame, 0, nFrames)
	for i := 0; i < nFrames; i++ {
		var fh [frameHdrLen]byte
		if _, err := io.ReadFull(r, fh[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated frame %d header: %w", ErrCorrupt, i, io.ErrUnexpectedEOF)
		}
		seq := binary.BigEndian.Uint32(fh[0:4])
		chunkLen := int(binary.BigEndian.Uint16(fh[4:6]))
		if chunkLen > etherlink.MaxChunk {
			return nil, corruptf("frame %d: %d-byte chunk over the %d MTU budget", i, chunkLen, etherlink.MaxChunk)
		}
		chunk := make([]byte, chunkLen)
		if _, err := io.ReadFull(r, chunk); err != nil {
			return nil, fmt.Errorf("%w: truncated frame %d chunk: %w", ErrCorrupt, i, io.ErrUnexpectedEOF)
		}
		var ft [frameFCSLen]byte
		if _, err := io.ReadFull(r, ft[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated frame %d FCS: %w", ErrCorrupt, i, io.ErrUnexpectedEOF)
		}
		frames = append(frames, etherlink.Frame{Seq: seq, Payload: chunk, FCS: binary.BigEndian.Uint32(ft[:])})
	}
	// Reassemble is the etherlink receive path: it verifies every FCS
	// and rejects duplicate, out-of-range and missing sequence numbers,
	// so the TCP front enforces exactly the frame discipline the
	// paper's staging link does.
	payload, err := etherlink.Reassemble(frames, int(total))
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return &Message{Op: op, Status: hdr[6], Payload: payload, TraceID: traceID, ReqID: reqID, HasReqID: hasReqID, DictID: dictID}, nil
}

// ParseMessage decodes one message from a byte slice (the fuzz entry
// point). Unlike ReadMessage there is no "clean end before a message"
// case: an empty or truncated input is a corrupt message.
func ParseMessage(data []byte, maxPayload int) (*Message, error) {
	m, err := ReadMessage(bytes.NewReader(data), maxPayload)
	if err != nil {
		if errors.Is(err, ErrCorrupt) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: truncated header: %w", ErrCorrupt, io.ErrUnexpectedEOF)
	}
	return m, nil
}

// StatusFor maps a request-side error onto the wire status byte. A cap
// rejection wins over the corrupt class it also wraps, and the
// retryable classes win over corrupt.
func StatusFor(err error) byte {
	switch {
	case errors.Is(err, ErrTooLarge):
		return StatusTooLarge
	case errors.Is(err, ErrBusy):
		return StatusBusy
	case errors.Is(err, ErrDraining):
		return StatusDraining
	case errors.Is(err, ErrUnknownDict):
		return StatusUnknownDict
	case errors.Is(err, ErrCorrupt):
		return StatusCorrupt
	default:
		return StatusInternal
	}
}

// StatusErr maps a response status byte back onto the package's typed
// errors (the client side of StatusFor). detail is the response
// payload, carried as error text; a leading copy of the sentinel's own
// message is trimmed so the text doesn't stack a prefix per tier when
// an error round-trips through a routing front.
func StatusErr(status byte, detail []byte) error {
	wrap := func(sentinel error) error {
		text := strings.TrimPrefix(string(detail), sentinel.Error()+": ")
		return fmt.Errorf("%w: %s", sentinel, text)
	}
	switch status {
	case StatusOK:
		return nil
	case StatusCorrupt:
		return wrap(ErrCorrupt)
	case StatusTooLarge:
		return wrap(ErrTooLarge)
	case StatusBusy:
		return wrap(ErrBusy)
	case StatusDraining:
		return wrap(ErrDraining)
	case StatusConnLimit:
		return fmt.Errorf("%w: connection byte cap: %s", ErrTooLarge, detail)
	case StatusUnknownDict:
		return wrap(ErrUnknownDict)
	default:
		return fmt.Errorf("server: remote error (status %d): %s", status, detail)
	}
}
