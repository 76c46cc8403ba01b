package deflate

import (
	"bytes"
	"compress/flate"
	"compress/zlib"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"lzssfpga/internal/bitio"
	"lzssfpga/internal/lzss"
	"lzssfpga/internal/token"
	"lzssfpga/internal/workload"
)

// dynamicBlock hand-builds a final dynamic block from literal/length
// and distance code lengths. The code-length code gives each length
// 0-15 a clBits-bit code (4 makes it complete), so the lengths go out
// one per symbol with no runs; body then writes the block's symbols
// with the codes of lit and dist.
func dynamicBlock(lit, dist []uint8, clBits uint, body func(bw *bitio.Writer, lit, dist []uint16)) []byte {
	bw := bitio.NewWriter(nil)
	bw.WriteBool(true)
	bw.WriteBits(2, 2)
	bw.WriteBits(uint32(len(lit)-257), 5)
	bw.WriteBits(uint32(len(dist)-1), 5)
	bw.WriteBits(19-4, 4)
	for _, sym := range codeLengthOrder {
		if sym < 16 {
			bw.WriteBits(uint32(clBits), 3)
		} else {
			bw.WriteBits(0, 3)
		}
	}
	for _, l := range append(append([]uint8(nil), lit...), dist...) {
		bw.WriteBitsRev(uint32(l), clBits)
	}
	body(bw, canonicalCodesInto(nil, lit), canonicalCodesInto(nil, dist))
	return flushBits(bw)
}

// sym writes symbol s of a code built by dynamicBlock.
func sym(bw *bitio.Writer, codes []uint16, lens []uint8, s int) {
	bw.WriteBitsRev(uint32(codes[s]), uint(lens[s]))
}

// litLens returns 257 literal/length code lengths with the given ones
// set.
func litLens(set map[int]uint8) []uint8 {
	l := make([]uint8, 257)
	for s, n := range set {
		if s >= len(l) {
			l = append(l, make([]uint8, s+1-len(l))...)
		}
		l[s] = n
	}
	return l
}

// flateInflate is compress/flate's verdict on a raw Deflate stream.
func flateInflate(body []byte) ([]byte, error) {
	return io.ReadAll(flate.NewReader(bytes.NewReader(body)))
}

// emptyDistStream is a dynamic block whose distance code has one
// length-0 entry — no distance codes at all (RFC 1951 §3.2.7) — and
// whose literals 'a' and end-of-block are one bit each: it codes "aaa".
func emptyDistStream() []byte {
	lit := litLens(map[int]uint8{'a': 1, endOfBlock: 1})
	return dynamicBlock(lit, []uint8{0}, 4, func(bw *bitio.Writer, lc, _ []uint16) {
		for i := 0; i < 3; i++ {
			sym(bw, lc, lit, 'a')
		}
		sym(bw, lc, lit, endOfBlock)
	})
}

// incompleteDistStream is a dynamic block whose only distance code has
// length 2, so half of the distance code space is unused; its symbols
// spell "aa" then a length-3 match at distance 1.
func incompleteDistStream() []byte {
	lit := litLens(map[int]uint8{'a': 2, endOfBlock: 2, 257: 1})
	dist := []uint8{2}
	return dynamicBlock(lit, dist, 4, func(bw *bitio.Writer, lc, dc []uint16) {
		sym(bw, lc, lit, 'a')
		sym(bw, lc, lit, 'a')
		sym(bw, lc, lit, 257)
		sym(bw, dc, dist, 0)
		sym(bw, lc, lit, endOfBlock)
	})
}

// decodeAll runs a raw Deflate stream through every entry point of the
// inflate core: InflateLimited, StreamInflater at several Read sizes,
// ParseCommands expanded by token.Expand, and ZlibDecompress on the
// stream wrapped in a zlib container. It returns each one's output by
// name, and the first error.
func decodeAll(body []byte) (map[string][]byte, error) {
	outs := map[string][]byte{}
	var first error
	note := func(name string, out []byte, err error) {
		if err != nil && first == nil {
			first = fmt.Errorf("%s: %w", name, err)
		}
		outs[name] = out
	}
	out, err := InflateLimited(body, DefaultDecodeLimits())
	note("InflateLimited", out, err)
	for _, size := range []int{1, 7, 4096, 65536} {
		out, err := readAllSized(NewStreamInflater(bytes.NewReader(body)), size)
		note(fmt.Sprintf("StreamInflater/%d", size), out, err)
	}
	cmds, err := ParseCommands(body)
	if err == nil {
		out, err = token.Expand(cmds)
	}
	note("ParseCommands", out, err)
	if err == nil {
		z, werr := ZlibWrap(body, outs["InflateLimited"], 32768)
		if werr != nil {
			return nil, werr
		}
		out, err = ZlibDecompress(z)
		note("ZlibDecompress", out, err)
	}
	return outs, first
}

// readAllSized drains r with Read calls of size bytes.
func readAllSized(r io.Reader, size int) ([]byte, error) {
	var out []byte
	buf := make([]byte, size)
	for {
		n, err := r.Read(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

// TestInflateAcceptsEmptyDistanceCode: a distance code of one zero
// length means the block is all literals (RFC 1951 §3.2.7); every
// decoder must accept it, as compress/flate does. A length symbol in
// such a block has no distance to decode and is corrupt.
func TestInflateAcceptsEmptyDistanceCode(t *testing.T) {
	body := emptyDistStream()
	if got, err := flateInflate(body); err != nil || string(got) != "aaa" {
		t.Fatalf("compress/flate: %q, %v", got, err)
	}
	outs, err := decodeAll(body)
	if err != nil {
		t.Fatal(err)
	}
	for name, out := range outs {
		if string(out) != "aaa" {
			t.Errorf("%s decoded %q, want \"aaa\"", name, out)
		}
	}

	lit := litLens(map[int]uint8{'a': 2, endOfBlock: 2, 257: 1})
	withMatch := dynamicBlock(lit, []uint8{0}, 4, func(bw *bitio.Writer, lc, _ []uint16) {
		sym(bw, lc, lit, 'a')
		sym(bw, lc, lit, 257)
		bw.WriteBits(0, 5)
		sym(bw, lc, lit, endOfBlock)
	})
	if _, err := flateInflate(withMatch); err == nil {
		t.Fatal("compress/flate accepted a match with no distance code")
	}
	if _, err := Inflate(withMatch); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("match with no distance code: %v", err)
	}
}

// TestInflateRejectsIncompleteCode: a code that leaves part of its
// code space unused is invalid, as in compress/flate and zlib's
// inftrees.c, except for a single code of length 1.
func TestInflateRejectsIncompleteCode(t *testing.T) {
	lit := litLens(map[int]uint8{'a': 2, endOfBlock: 2, 257: 1})
	aaEOB := func(bw *bitio.Writer, lc, _ []uint16) {
		sym(bw, lc, lit, 'a')
		sym(bw, lc, lit, 'a')
		sym(bw, lc, lit, endOfBlock)
	}
	halfLit := litLens(map[int]uint8{'a': 2, endOfBlock: 2})
	single := litLens(map[int]uint8{endOfBlock: 1})
	cases := []struct {
		name string
		body []byte
		ok   bool
	}{
		{"distance", incompleteDistStream(), false},
		{"literal/length", dynamicBlock(halfLit, []uint8{1}, 4, func(bw *bitio.Writer, lc, _ []uint16) {
			sym(bw, lc, halfLit, 'a')
			sym(bw, lc, halfLit, endOfBlock)
		}), false},
		// Sixteen 5-bit codes fill half the code-length code's space.
		{"code length", dynamicBlock(lit, []uint8{1}, 5, aaEOB), false},
		{"complete", dynamicBlock(lit, []uint8{1}, 4, aaEOB), true},
		{"single code of length 1", dynamicBlock(single, []uint8{1}, 4, func(bw *bitio.Writer, lc, _ []uint16) {
			sym(bw, lc, single, endOfBlock)
		}), true},
	}
	for _, c := range cases {
		want, ferr := flateInflate(c.body)
		if (ferr == nil) != c.ok {
			t.Fatalf("%s: compress/flate returned %q, %v", c.name, want, ferr)
		}
		out, err := Inflate(c.body)
		switch {
		case !c.ok && !errors.Is(err, ErrCorrupt):
			t.Errorf("%s: incomplete code decoded to %q, %v", c.name, out, err)
		case c.ok && (err != nil || !bytes.Equal(out, want)):
			t.Errorf("%s: decoded %q, %v; compress/flate %q", c.name, out, err, want)
		}
	}
}

// TestInflateDriversAgree decodes one set of streams through every
// entry point of the inflate core and compress/flate, byte for byte: the
// gen-2 corpora as compress/zlib writes them at levels 0 (stored
// blocks), 1, 6 and 9, and as the repository's serial, parallel,
// streaming, stored-block and preset-dictionary encoders write them.
func TestInflateDriversAgree(t *testing.T) {
	p := lzss.HWSpeedParams()
	dict := workload.Wiki(40<<10, 11)
	for name, data := range saRatioInputs(t) {
		streams := map[string][]byte{}
		for _, level := range []int{0, 1, 6, 9} {
			var buf bytes.Buffer
			w, err := zlib.NewWriterLevel(&buf, level)
			if err != nil {
				t.Fatal(err)
			}
			w.Write(data)
			w.Close()
			streams[fmt.Sprintf("zlib-%d", level)] = buf.Bytes()
		}
		cmds, _, err := lzss.Compress(data, p)
		if err != nil {
			t.Fatal(err)
		}
		if streams["serial"], err = ZlibCompress(cmds, data, p.Window); err != nil {
			t.Fatal(err)
		}
		if streams["parallel"], err = compressPar(data, p, ParallelOpts{Segment: 16 << 10}); err != nil {
			t.Fatal(err)
		}
		streams["stream"] = streamCompress(t, data, p, 5000)
		stored, err := StoredDeflate(data)
		if err != nil {
			t.Fatal(err)
		}
		if streams["stored"], err = ZlibWrap(stored, data, p.Window); err != nil {
			t.Fatal(err)
		}
		for sname, z := range streams {
			body := z[2 : len(z)-4]
			want, err := flateInflate(body)
			if err != nil || !bytes.Equal(want, data) {
				t.Fatalf("%s/%s: compress/flate: %v", name, sname, err)
			}
			outs, err := decodeAll(body)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, sname, err)
			}
			for entry, out := range outs {
				if !bytes.Equal(out, want) {
					t.Errorf("%s/%s: %s decoded %d bytes unlike compress/flate's %d", name, sname, entry, len(out), len(want))
				}
			}
		}

		// Preset-dictionary streams, ours and compress/zlib's.
		own, err := ZlibCompressDict(data, dict, p)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		w, err := zlibNewWriterDict(&buf, dict)
		if err != nil {
			t.Fatal(err)
		}
		w.Write(data)
		w.Close()
		for sname, z := range map[string][]byte{"dict": own, "zlib-dict": buf.Bytes()} {
			want, err := io.ReadAll(flate.NewReaderDict(bytes.NewReader(z[6:len(z)-4]), dict))
			if err != nil || !bytes.Equal(want, data) {
				t.Fatalf("%s/%s: compress/flate: %v", name, sname, err)
			}
			out, err := ZlibDecompressDict(z, dict)
			if err != nil || !bytes.Equal(out, want) {
				t.Errorf("%s/%s: ZlibDecompressDict: %v", name, sname, err)
			}
		}
	}
}

// TestInflateFastLoopEdges drives streams across the edges of the fast
// symbol loop, where decoding passes to the careful loop and back, and
// holds every output to compress/flate's. Wiki and CAN streams, fixed,
// dynamic and preset-dictionary, decode under every output limit from
// 300 bytes short of their size to their size, and the raw ones once
// through every other entry point of the inflate core, since
// TestInflateDriversAgree sends no CAN stream. Hand-built streams put
// a match of every distance 1-9 and length 3-258 just before and at the
// point where the output margin ends the fast loop under a limit of
// exactly the stream's size. Last,
// every error the fast loop can meet must read as it does from the
// careful loop alone, which is all ParseCommands runs.
func TestInflateFastLoopEdges(t *testing.T) {
	p := lzss.HWSpeedParams()
	dict := workload.Wiki(32<<10, 2)
	limits := func(name string, want []byte, dec func(DecodeLimits) ([]byte, error)) {
		t.Helper()
		for m := len(want) - 300; m <= len(want); m++ {
			out, err := dec(DecodeLimits{MaxOutputBytes: m})
			switch {
			case m < len(want) && !errors.Is(err, ErrLimit):
				t.Fatalf("%s under a %d-byte limit: %d bytes, %v; want ErrLimit", name, m, len(out), err)
			case m == len(want) && (err != nil || !bytes.Equal(out, want)):
				t.Fatalf("%s under its exact limit: %d bytes unlike compress/flate's %d, %v", name, len(out), len(want), err)
			}
		}
	}
	for _, corpus := range []struct {
		name string
		gen  workload.Generator
	}{{"wiki", workload.Wiki}, {"can", workload.CAN}} {
		data := corpus.gen(16<<10, 3)
		cmds, _, err := lzss.Compress(data, p)
		if err != nil {
			t.Fatal(err)
		}
		fixed, err := FixedDeflate(cmds)
		if err != nil {
			t.Fatal(err)
		}
		dynamic, err := DynamicDeflate(cmds)
		if err != nil {
			t.Fatal(err)
		}
		for kind, body := range map[string][]byte{"fixed": fixed, "dynamic": dynamic} {
			name := corpus.name + "/" + kind
			want, err := flateInflate(body)
			if err != nil || !bytes.Equal(want, data) {
				t.Fatalf("%s: compress/flate: %v", name, err)
			}
			limits(name, want, func(lim DecodeLimits) ([]byte, error) { return InflateLimited(body, lim) })
			outs, err := decodeAll(body)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for entry, out := range outs {
				if !bytes.Equal(out, want) {
					t.Errorf("%s: %s decoded %d bytes unlike compress/flate's %d", name, entry, len(out), len(want))
				}
			}
		}
		z, err := ZlibCompressDict(data, dict, p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := io.ReadAll(flate.NewReaderDict(bytes.NewReader(z[6:len(z)-4]), dict))
		if err != nil || !bytes.Equal(want, data) {
			t.Fatalf("%s/dict: compress/flate: %v", corpus.name, err)
		}
		limits(corpus.name+"/dict", want, func(lim DecodeLimits) ([]byte, error) {
			return ZlibDecompressDictLimited(z, dict, lim)
		})
	}

	prefix := make([]byte, 1000)
	rand.New(rand.NewSource(7)).Read(prefix)
	for d := 1; d <= 9; d++ {
		for length := token.MinMatch; length <= token.MaxMatch; length++ {
			// The match starts one byte before the fast loop's last
			// output position, then at it.
			for _, before := range []int{1, 0} {
				var cmds []token.Command
				for _, b := range prefix {
					cmds = append(cmds, token.Lit(b))
				}
				cmds = append(cmds, token.Copy(d, length))
				for i := 0; i < fastMargin+before-length; i++ {
					cmds = append(cmds, token.Lit(prefix[i]))
				}
				data, err := token.Expand(cmds)
				if err != nil {
					t.Fatal(err)
				}
				body, err := FixedDeflate(cmds)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("d=%d length=%d before=%d", d, length, before)
				want, err := flateInflate(body)
				if err != nil || !bytes.Equal(want, data) {
					t.Fatalf("%s: compress/flate: %v", name, err)
				}
				// Unlimited, the end of the input ends the fast loop
				// instead, within a few symbols of the longest matches.
				for _, m := range []int{len(data), 0} {
					out, err := InflateLimited(body, DecodeLimits{MaxOutputBytes: m})
					if err != nil || !bytes.Equal(out, want) {
						t.Fatalf("%s under a %d-byte limit: %d bytes unlike compress/flate's %d, %v", name, m, len(out), len(want), err)
					}
				}
				if _, err := InflateLimited(body, DecodeLimits{MaxOutputBytes: len(data) - 1}); !errors.Is(err, ErrLimit) {
					t.Fatalf("%s one byte under its size: %v; want ErrLimit", name, err)
				}
			}
		}
	}

	// Each bad symbol follows 1,000 literals and precedes 1 KiB of
	// zeros, which give the output a first reservation large enough
	// that the fast loop meets the symbol.
	pad := make([]byte, 1<<10)
	fixedLens := fixedLitLenLengths()
	fixedCodes := canonicalCodesInto(nil, fixedLens)
	fixedBlock := func(bad func(bw *bitio.Writer)) []byte {
		bw := bitio.NewWriter(nil)
		bw.WriteBool(true)
		bw.WriteBits(1, 2)
		for _, b := range prefix {
			sym(bw, fixedCodes, fixedLens, int(b))
		}
		bad(bw)
		bw.WriteBytes(pad)
		return flushBits(bw)
	}
	match := func(dsym uint32, extra uint) func(bw *bitio.Writer) {
		return func(bw *bitio.Writer) {
			sym(bw, fixedCodes, fixedLens, 257)
			bw.WriteBitsRev(dsym, 5)
			bw.WriteBits(1<<extra-1, extra)
		}
	}
	noDist := litLens(map[int]uint8{'a': 2, 'b': 2, endOfBlock: 2, 257: 2})
	onlyA := litLens(map[int]uint8{'a': 1})
	for _, c := range []struct {
		name, text string
		body       []byte
	}{
		{"symbol 286", "literal/length symbol 286", fixedBlock(func(bw *bitio.Writer) { sym(bw, fixedCodes, fixedLens, 286) })},
		{"symbol 287", "literal/length symbol 287", fixedBlock(func(bw *bitio.Writer) { sym(bw, fixedCodes, fixedLens, 287) })},
		{"distance symbol 30", "distance symbol 30", fixedBlock(match(30, 0))},
		{"distance symbol 31", "distance symbol 31", fixedBlock(match(31, 0))},
		{"distance past the output", "distance 32768 exceeds output 1000", fixedBlock(match(29, 13))},
		{"empty distance code", errBadCode.Error(), dynamicBlock(noDist, []uint8{0}, 4, func(bw *bitio.Writer, lc, _ []uint16) {
			for _, b := range prefix {
				sym(bw, lc, noDist, 'a'+int(b&1))
			}
			sym(bw, lc, noDist, 257)
			bw.WriteBytes(pad)
		})},
		// A single code of length 1 leaves half the table unmatched:
		// a 1 bit after a run of 'a's (0 bits) starts no code.
		{"no code", errBadCode.Error(), dynamicBlock(onlyA, []uint8{1}, 4, func(bw *bitio.Writer, lc, _ []uint16) {
			for range prefix {
				sym(bw, lc, onlyA, 'a')
			}
			bw.WriteBits(1, 1)
			bw.WriteBytes(pad)
		})},
	} {
		_, err := InflateLimited(c.body, DefaultDecodeLimits())
		_, want := ParseCommands(c.body)
		if err == nil || want == nil || err.Error() != want.Error() || !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: fast loop %v; careful loop %v", c.name, err, want)
		} else if !strings.Contains(err.Error(), c.text) {
			t.Errorf("%s: %v; want %q", c.name, err, c.text)
		}
	}
}

// inflateBenchCase is one stream the inflate benchmarks decode.
type inflateBenchCase struct {
	name string
	src  []byte // what the stream decodes to
	z    []byte // the zlib stream
	dict []byte // its preset dictionary, if any
}

// inflateBenchCases are the streams the workloads decode: wiki and CAN
// text at 4 KiB, 64 KiB and 4 MiB, as the paper's serial pipeline
// writes them (fixed Huffman) and as ParallelCompress does (dynamic
// Huffman per segment), and a 16 KiB preset-dictionary stream of each.
func inflateBenchCases(b *testing.B) []inflateBenchCase {
	b.Helper()
	p := lzss.HWSpeedParams()
	var cases []inflateBenchCase
	for _, corpus := range []struct {
		name string
		gen  workload.Generator
	}{{"wiki", workload.Wiki}, {"can", workload.CAN}} {
		for _, size := range []struct {
			name string
			n    int
		}{{"4KiB", 4 << 10}, {"64KiB", 64 << 10}, {"4MiB", 4 << 20}} {
			src := corpus.gen(size.n, 1)
			cmds, _, err := lzss.Compress(src, p)
			if err != nil {
				b.Fatal(err)
			}
			serial, err := ZlibCompress(cmds, src, p.Window)
			if err != nil {
				b.Fatal(err)
			}
			par, err := compressPar(src, p, ParallelOpts{})
			if err != nil {
				b.Fatal(err)
			}
			cases = append(cases,
				inflateBenchCase{name: corpus.name + "/serial/" + size.name, src: src, z: serial},
				inflateBenchCase{name: corpus.name + "/parallel/" + size.name, src: src, z: par})
		}
		src, dict := corpus.gen(16<<10, 1), corpus.gen(32<<10, 2)
		z, err := ZlibCompressDict(src, dict, p)
		if err != nil {
			b.Fatal(err)
		}
		cases = append(cases, inflateBenchCase{name: corpus.name + "/dict/16KiB", src: src, z: z, dict: dict})
	}
	return cases
}

func BenchmarkInflate(b *testing.B) {
	for _, c := range inflateBenchCases(b) {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.src)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if c.dict != nil {
					_, err = ZlibDecompressDictLimited(c.z, c.dict, DefaultDecodeLimits())
				} else {
					_, err = InflateLimited(c.z[2:len(c.z)-4], DefaultDecodeLimits())
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkStreamingReader(b *testing.B) {
	out := make([]byte, 8192)
	for _, c := range inflateBenchCases(b) {
		if c.dict != nil {
			continue
		}
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.src)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				zr, err := NewReader(bytes.NewReader(c.z))
				if err != nil {
					b.Fatal(err)
				}
				for err == nil {
					_, err = zr.Read(out)
				}
				if err != io.EOF {
					b.Fatal(err)
				}
			}
		})
	}
}
