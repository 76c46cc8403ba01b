package deflate

import (
	"bytes"
	"compress/flate"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"lzssfpga/internal/lzss"
	"lzssfpga/internal/token"
	"lzssfpga/internal/workload"
)

// --- length-limited Huffman construction ---

func kraftOK(lengths []uint8, maxLen int) bool {
	var k, full int64 = 0, 1 << uint(maxLen)
	for _, l := range lengths {
		if l == 0 {
			continue
		}
		if int(l) > maxLen {
			return false
		}
		k += int64(1) << uint(maxLen-int(l))
	}
	return k <= full
}

func TestBuildCodeLengthsSimple(t *testing.T) {
	freqs := []int64{10, 10, 10, 10}
	lens := buildCodeLengths(freqs, 15)
	for i, l := range lens {
		if l != 2 {
			t.Fatalf("symbol %d: length %d, want 2 (balanced tree)", i, l)
		}
	}
}

func TestBuildCodeLengthsSkewed(t *testing.T) {
	freqs := []int64{1000, 10, 10, 1}
	lens := buildCodeLengths(freqs, 15)
	if lens[0] != 1 {
		t.Fatalf("dominant symbol should get a 1-bit code, got %d", lens[0])
	}
	if !kraftOK(lens, 15) {
		t.Fatal("Kraft violated")
	}
}

func TestBuildCodeLengthsSingleSymbol(t *testing.T) {
	freqs := make([]int64, 8)
	freqs[3] = 42
	lens := buildCodeLengths(freqs, 15)
	if lens[3] != 1 {
		t.Fatalf("single used symbol must get length 1, got %d", lens[3])
	}
	for i, l := range lens {
		if i != 3 && l != 0 {
			t.Fatal("unused symbol got a code")
		}
	}
}

func TestBuildCodeLengthsEmpty(t *testing.T) {
	lens := buildCodeLengths(make([]int64, 5), 15)
	for _, l := range lens {
		if l != 0 {
			t.Fatal("empty histogram must give no codes")
		}
	}
}

func TestBuildCodeLengthsLimitEnforced(t *testing.T) {
	// Fibonacci-like frequencies force a maximally skewed tree whose
	// natural depth exceeds any small limit.
	freqs := make([]int64, 30)
	a, b := int64(1), int64(1)
	for i := range freqs {
		freqs[i] = a
		a, b = b, a+b
	}
	for _, limit := range []int{7, 9, 15} {
		lens := buildCodeLengths(append([]int64(nil), freqs...), limit)
		if got := maxDepth(lens); got > limit {
			t.Fatalf("limit %d: max depth %d", limit, got)
		}
		if !kraftOK(lens, limit) {
			t.Fatalf("limit %d: Kraft violated", limit)
		}
		// Every used symbol still has a code.
		for i, f := range freqs {
			if f > 0 && lens[i] == 0 {
				t.Fatalf("limit %d: symbol %d lost its code", limit, i)
			}
		}
	}
}

func TestBuildCodeLengthsDecodable(t *testing.T) {
	// Any constructed code must be accepted by the (independent)
	// canonical decoder — completeness and prefix-freedom in one check.
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(285)
		freqs := make([]int64, n)
		used := 0
		for i := range freqs {
			if rng.Intn(3) > 0 {
				freqs[i] = int64(rng.Intn(10000)) + 1
				used++
			}
		}
		if used < 2 {
			freqs[0], freqs[1] = 5, 9
		}
		lens := buildCodeLengths(freqs, maxCodeLen)
		if _, err := newHuffDec(lens); err != nil {
			t.Fatalf("trial %d: constructed code rejected by decoder: %v", trial, err)
		}
	}
}

func TestQuickHuffmanKraft(t *testing.T) {
	f := func(raw []uint16, limitSel bool) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 286 {
			raw = raw[:286]
		}
		freqs := make([]int64, len(raw))
		used := 0
		for i, v := range raw {
			freqs[i] = int64(v)
			if v > 0 {
				used++
			}
		}
		if used == 0 {
			return true
		}
		limit := 15
		if limitSel {
			limit = 7
		}
		lens := buildCodeLengths(freqs, limit)
		return kraftOK(lens, limit) && maxDepth(lens) <= limit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// --- RLE of code lengths ---

func TestRleCodeLengthsRoundTrip(t *testing.T) {
	// Decode the RLE stream back and compare.
	decode := func(syms []clSymbol) []uint8 {
		var out []uint8
		for _, s := range syms {
			switch {
			case s.sym < 16:
				out = append(out, uint8(s.sym))
			case s.sym == 16:
				prev := out[len(out)-1]
				for j := uint32(0); j < s.extra+3; j++ {
					out = append(out, prev)
				}
			case s.sym == 17:
				for j := uint32(0); j < s.extra+3; j++ {
					out = append(out, 0)
				}
			case s.sym == 18:
				for j := uint32(0); j < s.extra+11; j++ {
					out = append(out, 0)
				}
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(316)
		lens := make([]uint8, n)
		for i := 0; i < n; {
			run := 1 + rng.Intn(20)
			v := uint8(rng.Intn(16))
			if rng.Intn(2) == 0 {
				v = 0 // plenty of zero runs
			}
			for j := 0; j < run && i < n; j++ {
				lens[i] = v
				i++
			}
		}
		got := decode(rleCodeLengths(lens))
		if !bytes.Equal(got, lens) {
			t.Fatalf("trial %d: RLE round trip failed", trial)
		}
	}
}

func TestRleLongZeroRun(t *testing.T) {
	lens := make([]uint8, 300) // longer than one 18-symbol can hold
	syms := rleCodeLengths(lens)
	for _, s := range syms {
		if s.sym < 17 {
			t.Fatalf("zero run should use only 17/18 symbols, got %d", s.sym)
		}
	}
	total := 0
	for _, s := range syms {
		if s.sym == 17 {
			total += int(s.extra) + 3
		} else {
			total += int(s.extra) + 11
		}
	}
	if total != 300 {
		t.Fatalf("runs cover %d, want 300", total)
	}
}

// --- dynamic block encoding ---

func lzssCmds(t *testing.T, src []byte) []token.Command {
	t.Helper()
	cmds, _, err := lzss.Compress(src, lzss.HWSpeedParams())
	if err != nil {
		t.Fatal(err)
	}
	return cmds
}

func TestDynamicDeflateStdlibInterop(t *testing.T) {
	srcs := [][]byte{
		[]byte("aaaaaaaaaaaaaaaaaaaaabbbbbbbbbcccc"),
		[]byte(strings.Repeat("dynamic block with skewed symbol stats ", 500)),
		{42},
		bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 4096),
	}
	for i, src := range srcs {
		body, err := DynamicDeflate(lzssCmds(t, src))
		if err != nil {
			t.Fatal(err)
		}
		r := flate.NewReader(bytes.NewReader(body))
		got, err := io.ReadAll(r)
		if err != nil {
			t.Fatalf("case %d: stdlib rejected our dynamic block: %v", i, err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("case %d: mismatch", i)
		}
		// Our own inflater too.
		own, err := Inflate(body)
		if err != nil || !bytes.Equal(own, src) {
			t.Fatalf("case %d: own inflater failed: %v", i, err)
		}
	}
}

func TestDynamicBeatsFixedOnSkewedData(t *testing.T) {
	// 9-bit literals (>=144) dominate: fixed tables price them at 9
	// bits, a dynamic table prices them near log2(alphabet).
	src := make([]byte, 50000)
	rng := rand.New(rand.NewSource(6))
	for i := range src {
		src[i] = 200 + byte(rng.Intn(8))
	}
	cmds := lzssCmds(t, src)
	fixed, err := FixedDeflate(cmds)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := DynamicDeflate(cmds)
	if err != nil {
		t.Fatal(err)
	}
	if len(dyn) >= len(fixed) {
		t.Fatalf("dynamic %d not smaller than fixed %d on skewed data", len(dyn), len(fixed))
	}
}

func TestBestDeflatePicksStoredForRandom(t *testing.T) {
	src := make([]byte, 30000)
	rand.New(rand.NewSource(7)).Read(src)
	cmds := lzssCmds(t, src)
	best, err := BestDeflate(cmds, src)
	if err != nil {
		t.Fatal(err)
	}
	// Stored costs len+5*chunks; both Huffman forms cost more on random
	// bytes (literals average > 8 bits).
	if len(best) > len(src)+10 {
		t.Fatalf("best encoding %d bytes on %d random bytes — stored not chosen", len(best), len(src))
	}
	got, err := Inflate(best)
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("stored round trip failed: %v", err)
	}
}

func TestBestDeflateNeverWorseThanComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		src := make([]byte, 5000)
		switch trial % 3 {
		case 0:
			rng.Read(src)
		case 1:
			for i := range src {
				src[i] = byte(rng.Intn(3)) * 85
			}
		case 2:
			for i := range src {
				src[i] = byte(i / 100)
			}
		}
		cmds := lzssCmds(t, src)
		fixed, _ := FixedDeflate(cmds)
		dyn, _ := DynamicDeflate(cmds)
		stored, _ := StoredDeflate(src)
		best, err := BestDeflate(cmds, src)
		if err != nil {
			t.Fatal(err)
		}
		min := len(fixed)
		for _, n := range []int{len(dyn), len(stored)} {
			if n < min {
				min = n
			}
		}
		// Allow a byte of padding slack.
		if len(best) > min+1 {
			t.Fatalf("trial %d: best %d > min(fixed %d, dyn %d, stored %d)",
				trial, len(best), len(fixed), len(dyn), len(stored))
		}
		got, err := Inflate(best)
		if err != nil || !bytes.Equal(got, src) {
			t.Fatalf("trial %d: best round trip failed: %v", trial, err)
		}
	}
}

func TestZlibCompressBestInterop(t *testing.T) {
	src := []byte(strings.Repeat("zlib best-block container check ", 300))
	cmds := lzssCmds(t, src)
	z, err := ZlibCompressBest(cmds, src, 4096)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ZlibDecompress(z)
	if err != nil || !bytes.Equal(out, src) {
		t.Fatalf("round trip failed: %v", err)
	}
	zFixed, err := ZlibCompress(cmds, src, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(z) > len(zFixed) {
		t.Fatalf("best (%d) worse than fixed (%d)", len(z), len(zFixed))
	}
}

func TestQuickDynamicRoundTrip(t *testing.T) {
	p := lzss.Params{Window: 1024, HashBits: 10, MaxChain: 8, Nice: 32, InsertLimit: 8}
	f := func(data []byte, mod uint8) bool {
		if len(data) == 0 {
			return true
		}
		m := int(mod%9) + 2
		for i := range data {
			data[i] = byte(int(data[i]) % m)
		}
		cmds, _, err := lzss.Compress(data, p)
		if err != nil {
			return false
		}
		body, err := DynamicDeflate(cmds)
		if err != nil {
			return false
		}
		out, err := Inflate(body)
		if err != nil || !bytes.Equal(out, data) {
			return false
		}
		// Stdlib agreement.
		r := flate.NewReader(bytes.NewReader(body))
		sout, err := io.ReadAll(r)
		return err == nil && bytes.Equal(sout, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestDynamicHeaderBitsMatchEmission checks the chooser's price of each
// block kind, header included, against the bits the writer emits for
// that kind: the sizes SplitDeflate merges on and every caller chooses
// by.
func TestDynamicHeaderBitsMatchEmission(t *testing.T) {
	inputs := map[string][]byte{
		"empty":    nil,
		"repeats":  []byte(strings.Repeat("header accounting check ", 200)),
		"wiki140k": workload.Wiki(140_000, 3), // three stored chunks
	}
	for name, src := range inputs {
		cmds := lzssCmds(t, src)
		for _, kind := range []blockKind{blockStored, blockFixed, blockDynamic} {
			var w blockWriter
			got, price, err := w.choose(cmds, len(src), kind)
			if err != nil || got != kind {
				t.Fatalf("%s: choose(%d) = %d, %v", name, kind, got, err)
			}
			if err := w.writeBlock(cmds, src, kind, true); err != nil {
				t.Fatal(err)
			}
			if n := int(w.bw.BitsWritten()); n != price {
				t.Errorf("%s: kind %d emitted %d bits, chooser priced %d", name, kind, n, price)
			}
		}
	}
}

func TestParseCommandsRoundTrip(t *testing.T) {
	src := []byte(strings.Repeat("parse the command stream back out ", 400))
	cmds := lzssCmds(t, src)
	fixed, err := FixedDeflate(cmds)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseCommands(fixed)
	if err != nil {
		t.Fatal(err)
	}
	out, err := token.Expand(parsed)
	if err != nil || !bytes.Equal(out, src) {
		t.Fatalf("fixed: %v", err)
	}
	dyn, err := DynamicDeflate(cmds)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err = ParseCommands(dyn)
	if err != nil {
		t.Fatal(err)
	}
	out, err = token.Expand(parsed)
	if err != nil || !bytes.Equal(out, src) {
		t.Fatalf("dynamic: %v", err)
	}
	stored, err := StoredDeflate(src)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err = ParseCommands(stored)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range parsed {
		if c.K != token.Literal {
			t.Fatal("stored block must parse to literals")
		}
	}
	if _, err := ParseCommands([]byte{0x07}); err == nil {
		t.Fatal("reserved block type accepted")
	}
	if _, err := ParseCommands([]byte{0x01, 0x05, 0x00, 0x12, 0x00}); err == nil {
		t.Fatal("bad stored NLEN accepted")
	}
}
