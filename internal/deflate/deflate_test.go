package deflate

import (
	"bytes"
	"compress/flate"
	"compress/zlib"
	"hash/adler32"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"lzssfpga/internal/lzss"
	"lzssfpga/internal/token"
)

// --- table construction ---

func TestLengthCodeBoundaries(t *testing.T) {
	cases := []struct {
		length int
		sym    uint16
		extra  uint8
		base   uint16
	}{
		{3, 257, 0, 3},
		{10, 264, 0, 10},
		{11, 265, 1, 11},
		{12, 265, 1, 11},
		{13, 266, 1, 13},
		{34, 272, 2, 31},
		{130, 280, 4, 115},
		{131, 281, 5, 131},
		{257, 284, 5, 227},
		{258, 285, 0, 258},
	}
	for _, c := range cases {
		lc := lenCodeFor(c.length)
		if lc.sym != c.sym || lc.extra != c.extra || lc.base != c.base {
			t.Errorf("lenCodeFor(%d) = {%d,%d,%d}, want {%d,%d,%d}",
				c.length, lc.sym, lc.extra, lc.base, c.sym, c.extra, c.base)
		}
	}
}

func TestLengthCodeCoversRange(t *testing.T) {
	for l := 3; l <= 258; l++ {
		lc := lenCodeFor(l)
		if lc.sym < 257 || lc.sym > 285 {
			t.Fatalf("length %d maps to symbol %d", l, lc.sym)
		}
		// The encoded (base, extra) pair must reproduce l.
		if int(lc.base) > l || l-int(lc.base) >= 1<<lc.extra {
			t.Fatalf("length %d not representable: base %d extra %d", l, lc.base, lc.extra)
		}
	}
}

func TestDistCodeBoundaries(t *testing.T) {
	cases := []struct {
		d     int
		sym   uint8
		extra uint8
		base  uint16
	}{
		{1, 0, 0, 1},
		{4, 3, 0, 4},
		{5, 4, 1, 5},
		{8, 5, 1, 7},
		{9, 6, 2, 9},
		{256, 15, 6, 193},
		{257, 16, 7, 257},
		{4096, 23, 10, 3073},
		{24577, 29, 13, 24577},
		{32768, 29, 13, 24577},
	}
	for _, c := range cases {
		dc := distCodeFor(c.d)
		if dc.sym != c.sym || dc.extra != c.extra || dc.base != c.base {
			t.Errorf("distCodeFor(%d) = {%d,%d,%d}, want {%d,%d,%d}",
				c.d, dc.sym, dc.extra, dc.base, c.sym, c.extra, c.base)
		}
	}
}

func TestDistCodeCoversRange(t *testing.T) {
	for d := 1; d <= 32768; d++ {
		dc := distCodeFor(d)
		if int(dc.base) > d || d-int(dc.base) >= 1<<dc.extra {
			t.Fatalf("distance %d not representable: sym %d base %d extra %d", d, dc.sym, dc.base, dc.extra)
		}
	}
}

func TestFixedCodesMatchRFC(t *testing.T) {
	codes := canonicalCodes(fixedLitLenLengths())
	// RFC 1951 §3.2.6 anchor values.
	if codes[0] != 0x30 { // literal 0 → 00110000
		t.Errorf("code[0] = %x, want 30", codes[0])
	}
	if codes[143] != 0xBF {
		t.Errorf("code[143] = %x, want bf", codes[143])
	}
	if codes[144] != 0x190 {
		t.Errorf("code[144] = %x, want 190", codes[144])
	}
	if codes[255] != 0x1FF {
		t.Errorf("code[255] = %x, want 1ff", codes[255])
	}
	if codes[256] != 0 {
		t.Errorf("code[256] = %x, want 0", codes[256])
	}
	if codes[279] != 0x17 {
		t.Errorf("code[279] = %x, want 17", codes[279])
	}
	if codes[280] != 0xC0 {
		t.Errorf("code[280] = %x, want c0", codes[280])
	}
	if codes[287] != 0xC7 {
		t.Errorf("code[287] = %x, want c7", codes[287])
	}
}

// --- adler32 ---

func TestAdlerMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 17, 5551, 5552, 5553, 100000} {
		data := make([]byte, n)
		rng.Read(data)
		if got, want := AdlerChecksum(data), adler32.Checksum(data); got != want {
			t.Fatalf("n=%d: adler %08x, want %08x", n, got, want)
		}
	}
}

func TestAdlerIncremental(t *testing.T) {
	data := []byte("incremental adler check over several writes")
	h := NewAdler32()
	for i := 0; i < len(data); i += 7 {
		end := i + 7
		if end > len(data) {
			end = len(data)
		}
		h.Write(data[i:end])
	}
	if h.Sum32() != adler32.Checksum(data) {
		t.Fatal("incremental checksum differs")
	}
}

func TestQuickAdler(t *testing.T) {
	f := func(data []byte) bool {
		return AdlerChecksum(data) == adler32.Checksum(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// --- encoder vs stdlib flate decoder (the interop the paper claims) ---

func lzssCompress(t *testing.T, src []byte) []token.Command {
	t.Helper()
	cmds, _, err := lzss.Compress(src, lzss.HWSpeedParams())
	if err != nil {
		t.Fatal(err)
	}
	return cmds
}

func stdlibInflate(t *testing.T, body []byte) []byte {
	t.Helper()
	r := flate.NewReader(bytes.NewReader(body))
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("stdlib flate rejected our stream: %v", err)
	}
	return out
}

func TestFixedDeflateStdlibInterop(t *testing.T) {
	srcs := [][]byte{
		[]byte("snowy snow"),
		[]byte(strings.Repeat("embedded CAN logger frame 0x1A2B ", 300)),
		{},
		[]byte{0, 255, 128, 7},
		bytes.Repeat([]byte{0xAA}, 1000),
	}
	for i, src := range srcs {
		body, err := FixedDeflate(lzssCompress(t, src))
		if err != nil {
			t.Fatal(err)
		}
		if got := stdlibInflate(t, body); !bytes.Equal(got, src) {
			t.Fatalf("case %d: stdlib decoded %d bytes, want %d", i, len(got), len(src))
		}
	}
}

func TestFixedDeflateAllLiteralValues(t *testing.T) {
	// Exercise both the 8-bit (0-143) and 9-bit (144-255) literal ranges.
	src := make([]byte, 256)
	for i := range src {
		src[i] = byte(i)
	}
	var cmds []token.Command
	for _, b := range src {
		cmds = append(cmds, token.Lit(b))
	}
	body, err := FixedDeflate(cmds)
	if err != nil {
		t.Fatal(err)
	}
	if got := stdlibInflate(t, body); !bytes.Equal(got, src) {
		t.Fatal("literal sweep mismatch via stdlib")
	}
	got, err := Inflate(body)
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("literal sweep mismatch via own inflater: %v", err)
	}
}

func TestFixedDeflateAllLengths(t *testing.T) {
	// One command for every legal match length.
	src := []byte("abc")
	cmds := []token.Command{token.Lit('a'), token.Lit('b'), token.Lit('c')}
	for l := token.MinMatch; l <= token.MaxMatch; l++ {
		cmds = append(cmds, token.Copy(3, l))
	}
	want, err := token.Expand(cmds)
	if err != nil {
		t.Fatal(err)
	}
	_ = src
	body, err := FixedDeflate(cmds)
	if err != nil {
		t.Fatal(err)
	}
	if got := stdlibInflate(t, body); !bytes.Equal(got, want) {
		t.Fatal("length sweep mismatch via stdlib")
	}
}

func TestFixedDeflateDistanceSweep(t *testing.T) {
	// Build a long literal run, then matches at many distances
	// including every distance-code boundary.
	var cmds []token.Command
	for i := 0; i < 32768; i++ {
		cmds = append(cmds, token.Lit(byte(i*31)))
	}
	for _, d := range []int{1, 2, 3, 4, 5, 7, 9, 13, 25, 193, 256, 257, 385, 513, 1025, 3073, 4096, 8192, 16384, 24577, 32768} {
		cmds = append(cmds, token.Copy(d, 10))
	}
	want, err := token.Expand(cmds)
	if err != nil {
		t.Fatal(err)
	}
	body, err := FixedDeflate(cmds)
	if err != nil {
		t.Fatal(err)
	}
	if got := stdlibInflate(t, body); !bytes.Equal(got, want) {
		t.Fatal("distance sweep mismatch via stdlib")
	}
	got, err := Inflate(body)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("distance sweep mismatch via own inflater: %v", err)
	}
}

func TestZlibCompressStdlibInterop(t *testing.T) {
	src := []byte(strings.Repeat("wiki snapshot text with redundancy redundancy ", 500))
	for _, window := range []int{1024, 4096, 32768} {
		p := lzss.HWSpeedParams()
		p.Window = window
		cmds, _, err := lzss.Compress(src, p)
		if err != nil {
			t.Fatal(err)
		}
		z, err := ZlibCompress(cmds, src, window)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := zlib.NewReader(bytes.NewReader(z))
		if err != nil {
			t.Fatalf("window %d: stdlib zlib header rejected: %v", window, err)
		}
		got, err := io.ReadAll(zr)
		if err != nil || !bytes.Equal(got, src) {
			t.Fatalf("window %d: stdlib zlib round trip failed: %v", window, err)
		}
		// And through our own container parser.
		own, err := ZlibDecompress(z)
		if err != nil || !bytes.Equal(own, src) {
			t.Fatalf("window %d: own zlib round trip failed: %v", window, err)
		}
	}
}

func TestZlibHeaderValues(t *testing.T) {
	h, err := ZlibHeader(32768)
	if err != nil {
		t.Fatal(err)
	}
	if h[0] != 0x78 {
		t.Fatalf("CMF for 32K window = %02x, want 78", h[0])
	}
	if (uint32(h[0])*256+uint32(h[1]))%31 != 0 {
		t.Fatal("FCHECK invalid")
	}
	if _, err := ZlibHeader(1000); err == nil {
		t.Fatal("non-power-of-two window accepted")
	}
	if _, err := ZlibHeader(65536); err == nil {
		t.Fatal("oversized window accepted")
	}
}

// --- our inflater vs stdlib deflate encoder ---

func TestInflateDecodesStdlibOutput(t *testing.T) {
	srcs := [][]byte{
		[]byte("hello hello hello"),
		[]byte(strings.Repeat("dynamic huffman fodder - many distinct words mixed ", 200)),
		make([]byte, 10000),
	}
	rand.New(rand.NewSource(2)).Read(srcs[2])
	for _, level := range []int{0, 1, 6, 9} { // 0 = stored blocks
		for i, src := range srcs {
			var buf bytes.Buffer
			w, err := flate.NewWriter(&buf, level)
			if err != nil {
				t.Fatal(err)
			}
			w.Write(src)
			w.Close()
			got, err := Inflate(buf.Bytes())
			if err != nil {
				t.Fatalf("level %d case %d: %v", level, i, err)
			}
			if !bytes.Equal(got, src) {
				t.Fatalf("level %d case %d: mismatch", level, i)
			}
		}
	}
}

func TestZlibDecompressStdlibOutput(t *testing.T) {
	src := []byte(strings.Repeat("zlib container interop ", 100))
	var buf bytes.Buffer
	w := zlib.NewWriter(&buf)
	w.Write(src)
	w.Close()
	got, err := ZlibDecompress(buf.Bytes())
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("decode stdlib zlib: %v", err)
	}
}

// --- stored blocks ---

func TestStoredDeflate(t *testing.T) {
	for _, n := range []int{0, 1, 65535, 65536, 200000} {
		src := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(src)
		body, err := StoredDeflate(src)
		if err != nil {
			t.Fatal(err)
		}
		if got := stdlibInflate(t, body); !bytes.Equal(got, src) {
			t.Fatalf("n=%d: stored round trip via stdlib failed", n)
		}
		got, err := Inflate(body)
		if err != nil || !bytes.Equal(got, src) {
			t.Fatalf("n=%d: stored round trip via own inflater failed: %v", n, err)
		}
	}
}

// --- corrupt input handling ---

func TestInflateRejectsCorrupt(t *testing.T) {
	body, err := FixedDeflate([]token.Command{token.Lit('x')})
	if err != nil {
		t.Fatal(err)
	}
	// Reserved block type.
	if _, err := Inflate([]byte{0x07}); err == nil {
		t.Error("reserved block type accepted")
	}
	// Truncation.
	if _, err := Inflate(body[:0]); err == nil {
		t.Error("empty stream accepted")
	}
	// Stored length check violation.
	if _, err := Inflate([]byte{0x01, 0x05, 0x00, 0x00, 0x00}); err == nil {
		t.Error("bad NLEN accepted")
	}
}

func TestZlibDecompressRejectsCorrupt(t *testing.T) {
	src := []byte("checksummed payload")
	cmds := lzssCompress(t, src)
	z, err := ZlibCompress(cmds, src, 4096)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a trailer bit: Adler must catch it.
	bad := append([]byte(nil), z...)
	bad[len(bad)-1] ^= 1
	if _, err := ZlibDecompress(bad); err == nil {
		t.Error("corrupt adler accepted")
	}
	// Bad header check.
	bad2 := append([]byte(nil), z...)
	bad2[1] ^= 1
	if _, err := ZlibDecompress(bad2); err == nil {
		t.Error("bad FCHECK accepted")
	}
	if _, err := ZlibDecompress([]byte{0x78}); err == nil {
		t.Error("short stream accepted")
	}
}

func TestHuffDecRejectsBadCodes(t *testing.T) {
	if _, err := newHuffDec(make([]uint8, 10)); err == nil {
		t.Error("all-zero lengths accepted")
	}
	over := []uint8{1, 1, 1} // three codes of length 1: over-subscribed
	if _, err := newHuffDec(over); err == nil {
		t.Error("over-subscribed code accepted")
	}
	if _, err := newHuffDec([]uint8{16}); err == nil {
		t.Error("length 16 accepted")
	}
}

// --- CommandBits cost model ---

func TestCommandBitsMatchesEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var cmds []token.Command
	for i := 0; i < 2000; i++ {
		cmds = append(cmds, token.Lit(byte(rng.Intn(256))))
	}
	for i := 0; i < 2000; i++ {
		cmds = append(cmds, token.Copy(1+rng.Intn(32000), token.MinMatch+rng.Intn(256)))
	}
	wantBits := 3 // block header
	for _, c := range cmds {
		wantBits += CommandBits(c)
	}
	wantBits += 7 // end-of-block symbol
	// Compare against the encoder's actual bit count (before padding).
	var buf bytes.Buffer
	bw := newBitWriter(&buf)
	e := NewEncoder(bw)
	e.BeginBlock(true)
	for _, c := range cmds {
		if err := e.Encode(c); err != nil {
			t.Fatal(err)
		}
	}
	e.EndBlock()
	if got := int(bw.BitsWritten()); got != wantBits {
		t.Fatalf("encoder wrote %d bits, cost model says %d", got, wantBits)
	}
}

// --- property tests: full pipeline round trip ---

func TestQuickPipelineRoundTrip(t *testing.T) {
	p := lzss.Params{Window: 1024, HashBits: 10, MaxChain: 8, Nice: 32, InsertLimit: 8}
	f := func(data []byte, mod uint8) bool {
		m := int(mod%7) + 2
		for i := range data {
			data[i] = byte(int(data[i]) % m)
		}
		cmds, _, err := lzss.Compress(data, p)
		if err != nil {
			return false
		}
		z, err := ZlibCompress(cmds, data, p.Window)
		if err != nil {
			return false
		}
		out, err := ZlibDecompress(z)
		if err != nil || !bytes.Equal(out, data) {
			return false
		}
		// Stdlib must agree too.
		zr, err := zlib.NewReader(bytes.NewReader(z))
		if err != nil {
			return false
		}
		sout, err := io.ReadAll(zr)
		return err == nil && bytes.Equal(sout, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFixedDeflate(b *testing.B) {
	src := []byte(strings.Repeat("benchmark payload with repeats repeats ", 1600))[:65536]
	cmds, _, err := lzss.Compress(src, lzss.HWSpeedParams())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FixedDeflate(cmds); err != nil {
			b.Fatal(err)
		}
	}
}

func TestInflateNeverPanicsOnCorrupt(t *testing.T) {
	// Bit-flip fuzz over valid streams: the decoder may reject or (for
	// flips landing in stored payloads) produce different bytes, but it
	// must never panic or hang.
	src := []byte(strings.Repeat("robustness fodder 012345 ", 300))
	cmds, _, err := lzss.Compress(src, lzss.HWSpeedParams())
	if err != nil {
		t.Fatal(err)
	}
	bodies := [][]byte{}
	if b, err := FixedDeflate(cmds); err == nil {
		bodies = append(bodies, b)
	}
	if b, err := DynamicDeflate(cmds); err == nil {
		bodies = append(bodies, b)
	}
	if b, err := StoredDeflate(src[:1000]); err == nil {
		bodies = append(bodies, b)
	}
	rng := rand.New(rand.NewSource(90))
	for _, body := range bodies {
		for trial := 0; trial < 400; trial++ {
			mut := append([]byte(nil), body...)
			flips := 1 + rng.Intn(4)
			for f := 0; f < flips; f++ {
				mut[rng.Intn(len(mut))] ^= 1 << uint(rng.Intn(8))
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Inflate panicked on corrupt input: %v", r)
					}
				}()
				Inflate(mut)       //nolint:errcheck
				ParseCommands(mut) //nolint:errcheck
			}()
		}
	}
}

func TestInflateRandomGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 500; trial++ {
		garbage := make([]byte, rng.Intn(200))
		rng.Read(garbage)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on garbage: %v", r)
				}
			}()
			Inflate(garbage)        //nolint:errcheck
			ZlibDecompress(garbage) //nolint:errcheck
			GzipDecompress(garbage) //nolint:errcheck
		}()
	}
}

func TestInflateRejectsReservedSymbols(t *testing.T) {
	// Craft a fixed-Huffman block that emits symbol 286 (reserved: the
	// fixed tree defines its code but RFC 1951 forbids its use).
	codes := canonicalCodes(fixedLitLenLengths())
	var buf bytes.Buffer
	bw := newBitWriter(&buf)
	bw.WriteBool(true)    // BFINAL
	bw.WriteBits(0b01, 2) // fixed
	bw.WriteBitsRev(uint32(codes[286]), 8)
	bw.Flush()
	if _, err := Inflate(buf.Bytes()); err == nil {
		t.Fatal("reserved length symbol 286 accepted")
	}
	// And a distance symbol >= 30 after a valid length code.
	buf.Reset()
	bw.Reset(&buf)
	bw.WriteBool(true)
	bw.WriteBits(0b01, 2)
	// Emit 4 literals so a match has history, then length code 257 (len 3).
	for i := 0; i < 4; i++ {
		bw.WriteBitsRev(uint32(codes['a']), 8)
	}
	bw.WriteBitsRev(uint32(codes[257]), 7)
	// Fixed distance codes are 5 bits; 30 = 0b11110.
	bw.WriteBitsRev(30, 5)
	bw.Flush()
	if _, err := Inflate(buf.Bytes()); err == nil {
		t.Fatal("reserved distance symbol 30 accepted")
	}
}
