// Package server is the network serving layer: a long-running
// compression daemon (cmd/lzssd) exposing the persistent compression
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
	"slices"
	"strings"
	"sync"

	"lzssfpga/internal/checksum"
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

// maxFrameBuf bounds the codec's buffers: ReadMessage reserves no more
// than this for a message's frames before they arrive, and WriteMessage
// returns no larger encoding buffer to its pool. framesPerBuf is the
// frame count such a reservation holds, the most frames ReadMessage
// makes room for up front.
const (
	maxFrameBuf  = 1 << 20
	framesPerBuf = maxFrameBuf / (frameHdrLen + etherlink.MaxChunk + frameFCSLen)
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

// AppendMessage encodes m onto dst and returns the extended slice. dst
// grows once, to the message's exact size; etherlink.Segment cuts the
// payload and stamps each frame's FCS.
func AppendMessage(dst []byte, m *Message) ([]byte, error) {
	if len(m.Payload) > int(^uint32(0)) {
		return nil, fmt.Errorf("server: %d-byte payload overflows the length field", len(m.Payload))
	}
	size := headerLen + len(m.Payload)
	var flags byte
	if m.TraceID != "" {
		if len(m.TraceID) != obs.TraceIDLen {
			return nil, fmt.Errorf("server: trace ID must be %d bytes, got %d", obs.TraceIDLen, len(m.TraceID))
		}
		flags |= flagTraceID
		size += obs.TraceIDLen
	}
	if m.HasReqID {
		flags |= flagReqID
		size += 4
	}
	if m.DictID != "" {
		if len(m.DictID) > maxDictIDLen {
			return nil, fmt.Errorf("server: dictionary ID %q over the %d-byte field cap", m.DictID, maxDictIDLen)
		}
		flags |= flagDict
		size += 1 + len(m.DictID)
	}
	frames, err := etherlink.Segment(m.Payload)
	if err != nil {
		return nil, err
	}
	size += len(frames) * (frameHdrLen + frameFCSLen)
	dst = slices.Grow(dst, size)
	start := len(dst)
	dst = append(dst, protocolMagic...)
	dst = append(dst, protocolVer, m.Op, m.Status, flags)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Payload)))
	dst = binary.BigEndian.AppendUint32(dst, checksum.CRC32Update(0, dst[start:]))
	if flags&flagReqID != 0 {
		dst = binary.BigEndian.AppendUint32(dst, m.ReqID)
	}
	if flags&flagTraceID != 0 {
		dst = append(dst, m.TraceID...)
	}
	if flags&flagDict != 0 {
		dst = append(dst, byte(len(m.DictID)))
		dst = append(dst, m.DictID...)
	}
	for _, f := range frames {
		dst = binary.BigEndian.AppendUint32(dst, f.Seq)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(f.Payload)))
		dst = append(dst, f.Payload...)
		dst = binary.BigEndian.AppendUint32(dst, f.FCS)
	}
	return dst, nil
}

// writeBufs recycles WriteMessage's encoding buffers.
var writeBufs = sync.Pool{New: func() any { return new([]byte) }}

// WriteMessage encodes m onto w in one Write call (so a message is
// never interleaved with another writer's bytes on the same socket).
func WriteMessage(w io.Writer, m *Message) error {
	bp := writeBufs.Get().(*[]byte)
	buf, err := AppendMessage((*bp)[:0], m)
	if err == nil {
		_, err = w.Write(buf)
		// A rare large message's buffer goes to the collector rather
		// than staying pinned in the pool.
		if cap(buf) <= maxFrameBuf {
			*bp = buf
		}
	}
	writeBufs.Put(bp)
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
// responses by. The returned payload is the caller's own.
func ReadMessage(r io.Reader, maxPayload int) (*Message, error) {
	// The header and its optional fields share one small buffer, which
	// the header CRC then runs over.
	hdr := make([]byte, headerLen, headerLen+4+obs.TraceIDLen+1+maxDictIDLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: truncated header: %w", ErrCorrupt, io.ErrUnexpectedEOF)
	}
	if string(hdr[0:4]) != protocolMagic {
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
	if want, got := checksum.CRC32Update(0, hdr[0:12]), binary.BigEndian.Uint32(hdr[12:16]); want != got {
		return nil, corruptf("header CRC mismatch: computed %08x, carried %08x", want, got)
	}
	var reqID uint32
	hasReqID := flags&flagReqID != 0
	if hasReqID {
		if _, err := readMore(r, &hdr, 4); err != nil {
			return nil, fmt.Errorf("%w: truncated request ID: %w", ErrCorrupt, io.ErrUnexpectedEOF)
		}
		reqID = binary.BigEndian.Uint32(hdr[headerLen:])
	}
	if maxPayload >= 0 && uint64(total) > uint64(maxPayload) {
		hdrOnly := &Message{Op: op, Status: hdr[6], ReqID: reqID, HasReqID: hasReqID}
		return hdrOnly, fmt.Errorf("%w: %w: %d-byte payload over the %d cap", ErrCorrupt, ErrTooLarge, total, maxPayload)
	}
	var traceID string
	if flags&flagTraceID != 0 {
		off := len(hdr)
		if _, err := readMore(r, &hdr, obs.TraceIDLen); err != nil {
			return nil, fmt.Errorf("%w: truncated trace ID: %w", ErrCorrupt, io.ErrUnexpectedEOF)
		}
		traceID = string(hdr[off:])
	}
	var dictID string
	if flags&flagDict != 0 {
		off := len(hdr)
		if _, err := readMore(r, &hdr, 1); err != nil {
			return nil, fmt.Errorf("%w: truncated dictionary-ID length: %w", ErrCorrupt, io.ErrUnexpectedEOF)
		}
		n := int(hdr[off])
		if n == 0 || n > maxDictIDLen {
			return nil, corruptf("dictionary-ID length %d out of [1,%d]", n, maxDictIDLen)
		}
		if _, err := readMore(r, &hdr, n); err != nil {
			return nil, fmt.Errorf("%w: truncated dictionary ID: %w", ErrCorrupt, io.ErrUnexpectedEOF)
		}
		dictID = string(hdr[off+1:])
	}
	payload, err := readFrames(r, int(total))
	if err != nil {
		return nil, err
	}
	return &Message{Op: op, Status: hdr[6], Payload: payload, TraceID: traceID, ReqID: reqID, HasReqID: hasReqID, DictID: dictID}, nil
}

// readFrames reads the ceil(total/MaxChunk) frames of a total-byte
// payload (one empty frame for an empty payload) into one buffer and
// reassembles them. The buffer starts at the frame area the header
// announces, capped at maxFrameBuf, and past that grows only as bytes
// arrive, so a header alone cannot make the parser allocate what it
// announces.
func readFrames(r io.Reader, total int) ([]byte, error) {
	nFrames := max(1, (total+etherlink.MaxChunk-1)/etherlink.MaxChunk)
	buf := make([]byte, 0, min(total+nFrames*(frameHdrLen+frameFCSLen), maxFrameBuf))
	frames := make([]etherlink.Frame, 0, min(nFrames, framesPerBuf))
	for i := 0; i < nFrames; i++ {
		off := len(buf)
		if _, err := readMore(r, &buf, frameHdrLen); err != nil {
			return nil, fmt.Errorf("%w: truncated frame %d header: %w", ErrCorrupt, i, io.ErrUnexpectedEOF)
		}
		chunkLen := int(binary.BigEndian.Uint16(buf[off+4:]))
		if chunkLen > etherlink.MaxChunk {
			return nil, corruptf("frame %d: %d-byte chunk over the %d MTU budget", i, chunkLen, etherlink.MaxChunk)
		}
		if n, err := readMore(r, &buf, chunkLen+frameFCSLen); err != nil {
			part := "FCS"
			if n < chunkLen {
				part = "chunk"
			}
			return nil, fmt.Errorf("%w: truncated frame %d %s: %w", ErrCorrupt, i, part, io.ErrUnexpectedEOF)
		}
		frames = append(frames, etherlink.Frame{
			Seq: binary.BigEndian.Uint32(buf[off:]),
			FCS: binary.BigEndian.Uint32(buf[len(buf)-frameFCSLen:]),
		})
	}
	// The buffer may have moved while it grew, so the payload views are
	// taken once every frame is in.
	off := 0
	for i := range frames {
		n := int(binary.BigEndian.Uint16(buf[off+4:]))
		frames[i].Payload = buf[off+frameHdrLen : off+frameHdrLen+n]
		off += frameHdrLen + n + frameFCSLen
	}
	// Reassemble is the etherlink receive path: it verifies every FCS
	// and rejects duplicate, out-of-range and missing sequence numbers,
	// so the TCP front enforces exactly the frame discipline the
	// paper's staging link does. It copies the payload out of buf.
	payload, err := etherlink.Reassemble(frames, total)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return payload, nil
}

// readMore reads n more bytes from r onto the end of *buf, growing it
// as needed, and returns how many of them arrived.
func readMore(r io.Reader, buf *[]byte, n int) (int, error) {
	off := len(*buf)
	*buf = slices.Grow(*buf, n)[:off+n]
	return io.ReadFull(r, (*buf)[off:])
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
