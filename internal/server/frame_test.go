package server

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"lzssfpga/internal/checksum"
	"lzssfpga/internal/etherlink"
	"lzssfpga/internal/obs"
	"lzssfpga/internal/workload"
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

// rejectionCase is one hostile input of the parser's rejection table.
type rejectionCase struct {
	name     string
	data     []byte
	cap      int
	tooLarge bool
}

// rejectionCases is the table of hostile inputs: truncations, header
// tampering, cap violations and structural frame attacks.
func rejectionCases(t *testing.T) []rejectionCase {
	valid := encode(t, &Message{Op: OpCompress, Payload: []byte("hello, staging link")})
	big := encode(t, &Message{Op: OpCompress, Payload: bytes.Repeat([]byte{0xAB}, 4096)})

	corrupt := func(mutate func(b []byte) []byte) []byte {
		return mutate(append([]byte(nil), valid...))
	}
	cases := []rejectionCase{
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
			binary.BigEndian.PutUint32(b[12:16], checksum.CRC32Update(0, b[0:12]))
			return b
		}), cap: 1 << 20},
		// The dict flag with no dict field present: the parser reads the
		// first payload byte as the ID length ('h' = 104 > 32) and must
		// reject rather than swallow payload bytes as a name.
		{name: "dict flag without field", data: corrupt(func(b []byte) []byte {
			b[7] = 4
			binary.BigEndian.PutUint32(b[12:16], checksum.CRC32Update(0, b[0:12]))
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
	chunkA := bytes.Repeat([]byte{1}, etherlink.MaxChunk)
	chunkB := bytes.Repeat([]byte{2}, 10)
	total := uint32(len(chunkA) + len(chunkB))
	return append(cases,
		rejectionCase{
			name: "duplicate frame id",
			data: append(append(hdrFor(total, nil), wireFrame(0, chunkA)...), wireFrame(0, chunkB)...),
			cap:  1 << 20,
		},
		rejectionCase{
			name: "frame seq out of range",
			data: append(append(hdrFor(total, nil), wireFrame(0, chunkA)...), wireFrame(9, chunkB)...),
			cap:  1 << 20,
		},
		rejectionCase{
			// A zero-length frame where the announced total demands
			// payload: the reassembled size can't match.
			name: "zero-length frame under nonzero total",
			data: append(append(hdrFor(total, nil), wireFrame(0, chunkA)...), wireFrame(1, nil)...),
			cap:  1 << 20,
		},
		rejectionCase{
			name: "oversize frame chunk field",
			data: func() []byte {
				b := append(hdrFor(total, nil), wireFrame(0, chunkA)...)
				// Claim a chunk longer than the MTU budget.
				fh := make([]byte, frameHdrLen)
				binary.BigEndian.PutUint32(fh[0:4], 1)
				binary.BigEndian.PutUint16(fh[4:6], uint16(etherlink.MaxChunk+1))
				return append(b, fh...)
			}(),
			cap: 1 << 20,
		},
	)
}

// hdrFor builds a valid compress-request header announcing total
// payload bytes; extra may set further header bytes before the CRC is
// stamped.
func hdrFor(total uint32, extra func(h []byte)) []byte {
	h := make([]byte, headerLen)
	copy(h[0:4], protocolMagic)
	h[4] = protocolVer
	h[5] = OpCompress
	binary.BigEndian.PutUint32(h[8:12], total)
	if extra != nil {
		extra(h)
	}
	binary.BigEndian.PutUint32(h[12:16], checksum.CRC32Update(0, h[0:12]))
	return h
}

// wireFrame encodes one frame with a correct FCS for seq.
func wireFrame(seq uint32, chunk []byte) []byte {
	b := make([]byte, 0, frameHdrLen+len(chunk)+frameFCSLen)
	b = binary.BigEndian.AppendUint32(b, seq)
	b = binary.BigEndian.AppendUint16(b, uint16(len(chunk)))
	b = append(b, chunk...)
	return binary.BigEndian.AppendUint32(b, fcsOf(etherlink.Frame{Seq: seq, Payload: chunk}))
}

// TestParseMessageRejections runs the table of hostile inputs: every
// one must come back as a wrapped ErrCorrupt, never a panic.
func TestParseMessageRejections(t *testing.T) {
	for _, tc := range rejectionCases(t) {
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
	crc := checksum.CRC32Update(0, hdr[:])
	return checksum.CRC32Update(crc, f.Payload)
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

// corpusInputs reads the committed FuzzFrameParser corpus, keyed by
// file name.
func corpusInputs(t *testing.T) map[string][]byte {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzFrameParser")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make(map[string][]byte, len(entries))
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		// "go test fuzz v1", then one []byte("...") line.
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") {
			t.Fatalf("%s: not a one-value []byte corpus entry", e.Name())
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		inputs[e.Name()] = []byte(s)
	}
	return inputs
}

// pinPayload is the deterministic payload of the wire pin's size table.
func pinPayload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i) ^ byte(i>>8)*31
	}
	return p
}

// TestWireBytesPinned pins the bytes AppendMessage puts on the wire:
// the leading 8 bytes of the SHA-256 of the encoding of every message
// the committed FuzzFrameParser corpus accepts, and of payloads of 0,
// 1, one full frame, one byte into a second frame and 64 KiB under
// every op, with no optional field, each one alone, and all three. The
// encoding is deterministic, so a changed digest is a changed wire
// format.
func TestWireBytesPinned(t *testing.T) {
	want := map[string]string{
		"corpus/valid-message":     "3c348981ef99dd34",
		"corpus/zero-length-frame": "32b7896975b4268e",
		"n0/all/op1":               "d21392bb6867225b",
		"n0/all/op2":               "c60fb863f7a41459",
		"n0/all/op3":               "cdfa6a089b2dc698",
		"n0/dict/op1":              "6b2651aad7536b70",
		"n0/dict/op2":              "62425a0c5f06bf9b",
		"n0/dict/op3":              "549b19b403ea03a0",
		"n0/none/op1":              "02bb2322ff772a4f",
		"n0/none/op2":              "04979dbc55ffe308",
		"n0/none/op3":              "32b7896975b4268e",
		"n0/reqid/op1":             "2813d7966cbf4a5d",
		"n0/reqid/op2":             "d8aaf98ee1f0dabf",
		"n0/reqid/op3":             "555c7f5f3a39bbfd",
		"n0/trace/op1":             "c141341e26c12ab2",
		"n0/trace/op2":             "0c73fe76ba6a744a",
		"n0/trace/op3":             "5f5a6aa8468a081f",
		"n1/all/op1":               "218c40c56331ca8e",
		"n1/all/op2":               "ad4ba671139c89b9",
		"n1/all/op3":               "e09c0ec264a6e284",
		"n1/dict/op1":              "b19d953c752eb058",
		"n1/dict/op2":              "a56892025a83079c",
		"n1/dict/op3":              "4c308894390b2752",
		"n1/none/op1":              "cf16ee8d873c5542",
		"n1/none/op2":              "f85edd32456709e9",
		"n1/none/op3":              "bc435beb81a52e06",
		"n1/reqid/op1":             "89c250154f09fbfb",
		"n1/reqid/op2":             "46b623bd65df38c6",
		"n1/reqid/op3":             "d5bede04340f5749",
		"n1/trace/op1":             "cf63a5cb7cc2ba1f",
		"n1/trace/op2":             "95ab54dce67954bb",
		"n1/trace/op3":             "b549730a03edc799",
		"n1496/all/op1":            "e3dec3273a2e1db5",
		"n1496/all/op2":            "a7ae56a04ab4662c",
		"n1496/all/op3":            "48a109984a730e21",
		"n1496/dict/op1":           "637567117f7646d1",
		"n1496/dict/op2":           "78cdd8c925b93067",
		"n1496/dict/op3":           "f4696241e65f9a3f",
		"n1496/none/op1":           "7d6c07a2618d6e21",
		"n1496/none/op2":           "aa0debc9aaf74991",
		"n1496/none/op3":           "eb2212d153921b01",
		"n1496/reqid/op1":          "13cd1fcdca74e443",
		"n1496/reqid/op2":          "c0f9abbb8a14a2ac",
		"n1496/reqid/op3":          "3c1cefe43a1f5e6a",
		"n1496/trace/op1":          "9576ed6a8253e192",
		"n1496/trace/op2":          "df3773637cb623bc",
		"n1496/trace/op3":          "ff1aaaf1fb3038ba",
		"n1497/all/op1":            "5e04e50c1ebac868",
		"n1497/all/op2":            "45b0466a5535e311",
		"n1497/all/op3":            "e0309e5b6b55a1e2",
		"n1497/dict/op1":           "2a7cf696d3972d86",
		"n1497/dict/op2":           "97076d66dde2444c",
		"n1497/dict/op3":           "080769b5d7656083",
		"n1497/none/op1":           "50c11dc6c29ba913",
		"n1497/none/op2":           "1c60bb0a408f4ad1",
		"n1497/none/op3":           "e93ed7b2fd689482",
		"n1497/reqid/op1":          "29c26fc22a65e478",
		"n1497/reqid/op2":          "ec928b8449d5919d",
		"n1497/reqid/op3":          "09b3b44830262b48",
		"n1497/trace/op1":          "6843f85b3e55a755",
		"n1497/trace/op2":          "0798a6c673901d2d",
		"n1497/trace/op3":          "8bbed08de78e5b35",
		"n65536/all/op1":           "4691a7f60a584db1",
		"n65536/all/op2":           "9129fce096ec4dc4",
		"n65536/all/op3":           "51240b7f12c734b6",
		"n65536/dict/op1":          "e1824ee59a5e7e7a",
		"n65536/dict/op2":          "48a4a74e3572f34a",
		"n65536/dict/op3":          "3b7198a27f950496",
		"n65536/none/op1":          "7c4c4cb27e3dacb6",
		"n65536/none/op2":          "af07029668956c33",
		"n65536/none/op3":          "c6c51bfeb5481e14",
		"n65536/reqid/op1":         "98e984442d8401d8",
		"n65536/reqid/op2":         "baf8aea0724ccf68",
		"n65536/reqid/op3":         "f287e0c982c43c4f",
		"n65536/trace/op1":         "a4c736cdcf853788",
		"n65536/trace/op2":         "96867b56cde22502",
		"n65536/trace/op3":         "458eb37e69764f2f",
	}
	got := map[string]string{}
	pin := func(name string, m *Message) {
		b, err := AppendMessage(nil, m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(b)
		got[name] = hex.EncodeToString(sum[:8])
	}
	for name, data := range corpusInputs(t) {
		if m, err := ParseMessage(data, 64<<10); err == nil {
			pin("corpus/"+name, m)
		}
	}
	fields := []struct {
		name string
		set  func(m *Message)
	}{
		{"none", func(m *Message) {}},
		{"reqid", func(m *Message) { m.ReqID, m.HasReqID = 0xC0FFEE, true }},
		{"trace", func(m *Message) { m.TraceID = "0123456789abcdef" }},
		{"dict", func(m *Message) { m.DictID = "wiki" }},
		{"all", func(m *Message) {
			m.ReqID, m.HasReqID, m.TraceID, m.DictID = 0xC0FFEE, true, "0123456789abcdef", "wiki"
		}},
	}
	for _, n := range []int{0, 1, etherlink.MaxChunk, etherlink.MaxChunk + 1, 64 << 10} {
		for _, f := range fields {
			for _, op := range []byte{OpCompress, OpDecompress, OpResponse} {
				m := &Message{Op: op, Payload: pinPayload(n)}
				f.set(m)
				pin(fmt.Sprintf("n%d/%s/op%d", n, f.name, op), m)
			}
		}
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if want[name] != got[name] {
			t.Errorf("%s: wire digest %s, pinned %q", name, got[name], want[name])
		}
	}
	if len(want) != len(got) {
		t.Errorf("pinned %d encodings, produced %d", len(want), len(got))
	}
}

// refReadMessage is the frame parser's reference: the header and each
// optional field through io.ReadFull, every frame read into its own
// etherlink.Frame, then etherlink.Reassemble — the algorithm ReadMessage
// must keep agreeing with, error texts included.
func refReadMessage(r io.Reader, maxPayload int) (*Message, error) {
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
	op, flags := hdr[5], hdr[7]
	if op != OpCompress && op != OpDecompress && op != OpResponse {
		return nil, corruptf("unknown op %d", op)
	}
	if flags&^byte(flagTraceID|flagReqID|flagDict) != 0 {
		return nil, corruptf("unknown header flags %#02x", flags)
	}
	total := binary.BigEndian.Uint32(hdr[8:12])
	if want, got := checksum.CRC32Update(0, hdr[0:12]), binary.BigEndian.Uint32(hdr[12:16]); want != got {
		return nil, corruptf("header CRC mismatch: computed %08x, carried %08x", want, got)
	}
	m := &Message{Op: op, Status: hdr[6], HasReqID: flags&flagReqID != 0}
	if m.HasReqID {
		var rb [4]byte
		if _, err := io.ReadFull(r, rb[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated request ID: %w", ErrCorrupt, io.ErrUnexpectedEOF)
		}
		m.ReqID = binary.BigEndian.Uint32(rb[:])
	}
	if maxPayload >= 0 && uint64(total) > uint64(maxPayload) {
		return m, fmt.Errorf("%w: %w: %d-byte payload over the %d cap", ErrCorrupt, ErrTooLarge, total, maxPayload)
	}
	if flags&flagTraceID != 0 {
		tb := make([]byte, obs.TraceIDLen)
		if _, err := io.ReadFull(r, tb); err != nil {
			return nil, fmt.Errorf("%w: truncated trace ID: %w", ErrCorrupt, io.ErrUnexpectedEOF)
		}
		m.TraceID = string(tb)
	}
	if flags&flagDict != 0 {
		var lb [1]byte
		if _, err := io.ReadFull(r, lb[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated dictionary-ID length: %w", ErrCorrupt, io.ErrUnexpectedEOF)
		}
		if n := int(lb[0]); n == 0 || n > maxDictIDLen {
			return nil, corruptf("dictionary-ID length %d out of [1,%d]", n, maxDictIDLen)
		}
		db := make([]byte, lb[0])
		if _, err := io.ReadFull(r, db); err != nil {
			return nil, fmt.Errorf("%w: truncated dictionary ID: %w", ErrCorrupt, io.ErrUnexpectedEOF)
		}
		m.DictID = string(db)
	}
	nFrames := max(1, (int(total)+etherlink.MaxChunk-1)/etherlink.MaxChunk)
	var frames []etherlink.Frame
	for i := 0; i < nFrames; i++ {
		var fh [frameHdrLen]byte
		if _, err := io.ReadFull(r, fh[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated frame %d header: %w", ErrCorrupt, i, io.ErrUnexpectedEOF)
		}
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
		frames = append(frames, etherlink.Frame{Seq: binary.BigEndian.Uint32(fh[0:4]), Payload: chunk, FCS: binary.BigEndian.Uint32(ft[:])})
	}
	payload, err := etherlink.Reassemble(frames, int(total))
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	m.Payload = payload
	return m, nil
}

// mangledMessages generates wire messages around random payloads with
// random optional fields, most of them damaged: frames shuffled,
// duplicated, dropped or renumbered, chunks re-cut to sizes that do or
// do not sum to the announced total, a bit flipped, the tail cut off.
func mangledMessages(rng *rand.Rand, count int) [][]byte {
	var out [][]byte
	for i := 0; i < count; i++ {
		n := rng.Intn(5 * etherlink.MaxChunk)
		if rng.Intn(8) == 0 {
			n = rng.Intn(3)
		}
		m := &Message{Op: byte(1 + rng.Intn(3)), Status: byte(rng.Intn(8)), Payload: make([]byte, n)}
		rng.Read(m.Payload)
		if rng.Intn(2) == 0 {
			m.ReqID, m.HasReqID = rng.Uint32(), true
		}
		if rng.Intn(3) == 0 {
			m.TraceID = fmt.Sprintf("%016x", rng.Uint64())
		}
		if rng.Intn(3) == 0 {
			m.DictID = "wiki"
		}
		enc, err := AppendMessage(nil, m)
		if err != nil {
			panic(err)
		}
		nFrames := max(1, (n+etherlink.MaxChunk-1)/etherlink.MaxChunk)
		head := enc[:len(enc)-n-nFrames*(frameHdrLen+frameFCSLen)]
		// Chunk sizes: the standard cut, or a random one whose sizes
		// still sum to n.
		sizes := make([]int, nFrames)
		left := n
		for j := range sizes {
			sizes[j] = min(left, etherlink.MaxChunk)
			if rng.Intn(3) == 0 {
				rest := nFrames - j - 1
				lo := max(0, left-rest*etherlink.MaxChunk)
				hi := min(etherlink.MaxChunk, left)
				sizes[j] = lo + rng.Intn(hi-lo+1)
			}
			left -= sizes[j]
		}
		if rng.Intn(6) == 0 {
			j := rng.Intn(nFrames)
			sizes[j] = max(0, min(etherlink.MaxChunk, sizes[j]+rng.Intn(3)-1))
		}
		var frames [][]byte
		off := 0
		for j, sz := range sizes {
			end := min(off+sz, n)
			frames = append(frames, wireFrame(uint32(j), m.Payload[off:end]))
			off = end
		}
		for k := rng.Intn(3); k > 0; k-- {
			switch j := rng.Intn(len(frames)); rng.Intn(5) {
			case 0: // shuffle
				rng.Shuffle(len(frames), func(a, b int) { frames[a], frames[b] = frames[b], frames[a] })
			case 1: // duplicate over another frame
				frames[rng.Intn(len(frames))] = frames[j]
			case 2: // duplicate inserted
				frames = append(frames[:j], append([][]byte{frames[j]}, frames[j:]...)...)
			case 3: // drop
				if len(frames) > 1 {
					frames = append(frames[:j], frames[j+1:]...)
				}
			case 4: // renumber, FCS re-stamped
				chunk := frames[j][frameHdrLen : len(frames[j])-frameFCSLen]
				frames[j] = wireFrame(uint32(rng.Intn(nFrames+2)), chunk)
			}
		}
		b := append([]byte(nil), head...)
		for _, f := range frames {
			b = append(b, f...)
		}
		if rng.Intn(5) == 0 {
			bit := rng.Intn(8 * len(b))
			b[bit/8] ^= 1 << (bit % 8)
		}
		if rng.Intn(6) == 0 {
			b = b[:rng.Intn(len(b)+1)]
		}
		out = append(out, b)
	}
	return out
}

// TestReadMessageMatchesReassemble is the differential: on the corpus,
// every rejection-table input and generated intact and damaged
// messages, ReadMessage and the frame-by-frame Reassemble reference
// must accept and reject alike — same error text and class
// (ErrCorrupt, ErrTooLarge, io.EOF), same header and payload.
func TestReadMessageMatchesReassemble(t *testing.T) {
	type input struct {
		name string
		data []byte
		cap  int
	}
	var inputs []input
	for name, data := range corpusInputs(t) {
		inputs = append(inputs, input{"corpus/" + name, data, 64 << 10})
	}
	for _, tc := range rejectionCases(t) {
		inputs = append(inputs, input{"rejection/" + tc.name, tc.data, tc.cap})
	}
	for i, data := range mangledMessages(rand.New(rand.NewSource(19)), 600) {
		inputs = append(inputs, input{fmt.Sprintf("mangled/%d", i), data, 1 << 20})
	}
	accepted := 0
	for _, in := range inputs {
		for _, oneByte := range []bool{false, true} {
			src := func() io.Reader {
				if oneByte {
					return iotest.OneByteReader(bytes.NewReader(in.data))
				}
				return bytes.NewReader(in.data)
			}
			got, gerr := ReadMessage(src(), in.cap)
			want, werr := refReadMessage(src(), in.cap)
			if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
				t.Fatalf("%s: ReadMessage error %v, reference %v", in.name, gerr, werr)
			}
			for _, class := range []error{ErrCorrupt, ErrTooLarge, io.EOF} {
				if errors.Is(gerr, class) != errors.Is(werr, class) {
					t.Fatalf("%s: class %v differs: %v vs %v", in.name, class, gerr, werr)
				}
			}
			if (got == nil) != (want == nil) {
				t.Fatalf("%s: message %+v, reference %+v", in.name, got, want)
			}
			if got == nil {
				continue
			}
			if got.Op != want.Op || got.Status != want.Status || got.TraceID != want.TraceID ||
				got.ReqID != want.ReqID || got.HasReqID != want.HasReqID || got.DictID != want.DictID ||
				!bytes.Equal(got.Payload, want.Payload) || (got.Payload == nil) != (want.Payload == nil) {
				t.Fatalf("%s: message differs from the reference", in.name)
			}
			if gerr == nil && !oneByte {
				accepted++
			}
		}
	}
	t.Logf("%d of %d inputs accepted", accepted, len(inputs))
	if accepted < len(inputs)/10 {
		t.Fatalf("only %d of %d inputs were accepted: the generator barely exercises the accept path", accepted, len(inputs))
	}
}

// TestReadMessageHeaderAllocBound: a bare header announcing 64 MiB,
// then EOF, must not make the parser reserve memory for the announced
// payload or its frame count.
func TestReadMessageHeaderAllocBound(t *testing.T) {
	const announced = 64 << 20
	hdr := hdrFor(announced, nil)
	const calls = 8
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := ReadMessage(bytes.NewReader(hdr), announced); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bare header: want ErrCorrupt, got %v", err)
		}
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("a bare %d-byte header allocated %d bytes per call", announced, per)
	if per >= 2<<20 {
		t.Fatalf("a bare %d-byte header allocated %d bytes per call, want under 2 MiB", announced, per)
	}
}

// loopReader serves the same bytes forever.
type loopReader struct {
	b   []byte
	off int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.b[l.off:])
	l.off = (l.off + n) % len(l.b)
	return n, nil
}

// BenchmarkFrameCodec times one wiki message each way through the
// codec: AppendMessage onto an empty slice, and ReadMessage through a
// bufio.Reader, as the serving loop and the Mux read.
func BenchmarkFrameCodec(b *testing.B) {
	for _, size := range []int{4 << 10, 64 << 10} {
		m := &Message{Op: OpCompress, Payload: workload.Wiki(size, 1), ReqID: 1, HasReqID: true}
		wire, err := AppendMessage(nil, m)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("AppendMessage/%dKiB", size>>10), func(b *testing.B) {
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := AppendMessage(nil, m); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("ReadMessage/%dKiB", size>>10), func(b *testing.B) {
			br := bufio.NewReader(&loopReader{b: wire})
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ReadMessage(br, size); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
