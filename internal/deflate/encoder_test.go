package deflate

import (
	"bytes"
	"math/rand"
	"testing"

	"lzssfpga/internal/bitio"
	"lzssfpga/internal/lzss"
	"lzssfpga/internal/token"
	"lzssfpga/internal/workload"
)

// TestEncodersRejectInvalidCommands runs commands the Deflate tables
// cannot encode, each after 64 literals (so the emit loop stops with
// bits pending), through every encoder entry point: each call must
// return an error, and none may panic. The choosing encoders count the
// block before they emit it, so the count must reject what the emit
// loop would.
func TestEncodersRejectInvalidCommands(t *testing.T) {
	bad := []token.Command{
		token.Copy(0, 3), token.Copy(1, 2), token.Copy(1, 300), token.Copy(40000, 3), {K: 7},
	}
	src := bytes.Repeat([]byte("a"), 64)
	lits := make([]token.Command, len(src))
	for i, b := range src {
		lits[i] = token.Lit(b)
	}
	encoders := []struct {
		name string
		fn   func([]token.Command) ([]byte, error)
	}{
		{"FixedDeflate", FixedDeflate},
		{"DynamicDeflate", DynamicDeflate},
		{"BestDeflate", func(c []token.Command) ([]byte, error) { return BestDeflate(c, src) }},
		{"SplitDeflate", SplitDeflate},
		{"ZlibCompress", func(c []token.Command) ([]byte, error) { return ZlibCompress(c, src, 32768) }},
		{"ZlibCompressBest", func(c []token.Command) ([]byte, error) { return ZlibCompressBest(c, src, 32768) }},
		{"ZlibCompressSplit", func(c []token.Command) ([]byte, error) { return ZlibCompressSplit(c, src, 32768) }},
	}
	for _, e := range encoders {
		for _, c := range bad {
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%s(%#v): panic: %v", e.name, c, p)
					}
				}()
				if _, err := e.fn(append(lits[:len(lits):len(lits)], c)); err == nil {
					t.Errorf("%s accepted %#v", e.name, c)
				}
			}()
		}
	}
}

// emitWriteBits is emit as one WriteBits per symbol, the loop before
// emit kept the accumulator in locals: the oracle emit is held to.
func emitWriteBits(bw *bitio.Writer, t *emitTable, cmds []token.Command) error {
	for _, c := range cmds {
		if c.K == token.Literal {
			e := t.lit[c.Lit]
			bw.WriteBits(e.bits, uint(e.n))
			continue
		}
		if !inRange(c) {
			return c.Validate()
		}
		e := t.len[c.Length-token.MinMatch]
		bw.WriteBits(e.bits, uint(e.n))
		dc := distCodeFor(c.Distance)
		e = t.dist[dc.sym]
		bw.WriteBits(e.bits|uint32(c.Distance-int(dc.base))<<e.n, uint(e.n)+uint(dc.extra))
	}
	e := t.lit[endOfBlock]
	bw.WriteBits(e.bits, uint(e.n))
	return nil
}

// skewedCode fills t from a dynamic plan over a histogram whose
// geometric head pushes every other symbol to the 15-bit limit, the
// rare distance codes 28 and 29 (13 extra bits) and the 5-extra-bit
// length codes among them: the longest entries emit can meet.
func skewedCode(t *testing.T) *emitTable {
	t.Helper()
	var h histogram
	for s := range h.lit {
		h.lit[s] = 1
		if s < 40 {
			h.lit[s] = 1 << (40 - s)
		}
	}
	for s := range h.dist {
		h.dist[s] = 1 << (numDistSym - s)
	}
	var plan dynamicPlan
	plan.plan(&h)
	for _, s := range []int{281, 284, numLitLenSym - 3} {
		if plan.litLens[s] != maxCodeLen {
			t.Fatalf("literal/length symbol %d has a %d-bit code, want %d", s, plan.litLens[s], maxCodeLen)
		}
	}
	for _, s := range []int{28, 29} {
		if plan.distLens[s] != maxCodeLen {
			t.Fatalf("distance symbol %d has a %d-bit code, want %d", s, plan.distLens[s], maxCodeLen)
		}
	}
	var dyn emitTable
	dyn.fill(plan.litLens[:], plan.distLens[:])
	return &dyn
}

// TestEmitMatchesWriteBits holds emit to emitWriteBits byte for byte:
// random valid command streams, half their distances past 16 KiB, in
// the fixed code and in a skewed dynamic code whose entries reach
// 15+5 and 15+13 bits, each stream starting after 0-31 pending bits.
// Every fourth stream ends in a command out of range, so the error
// exit must hand back the bits written before it.
func TestEmitMatchesWriteBits(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	codes := map[string]*emitTable{"fixed": &fixedCode, "dynamic": skewedCode(t)}
	for name, code := range codes {
		for stream := 0; stream < 64; stream++ {
			cmds := make([]token.Command, 1+rng.Intn(3000))
			for i := range cmds {
				switch rng.Intn(3) {
				case 0:
					cmds[i] = token.Lit(byte(rng.Intn(256)))
				case 1:
					cmds[i] = token.Copy(1+rng.Intn(token.MaxDistance), token.MinMatch+rng.Intn(token.MaxMatch-token.MinMatch+1))
				default:
					cmds[i] = token.Copy(token.MaxDistance/2+1+rng.Intn(token.MaxDistance/2), token.MaxMatch-rng.Intn(16))
				}
			}
			if stream%4 == 3 {
				cmds[rng.Intn(len(cmds))] = token.Copy(token.MaxDistance+1, token.MinMatch)
			}
			pending := uint(rng.Intn(32))
			pre := rng.Uint32() & (1<<pending - 1)
			var got, want bitio.Writer
			got.WriteBits(pre, pending)
			want.WriteBits(pre, pending)
			gotErr := emit(&got, code, cmds)
			wantErr := emitWriteBits(&want, code, cmds)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s stream %d: emit error %v, oracle %v", name, stream, gotErr, wantErr)
			}
			if got.BitsWritten() != want.BitsWritten() {
				t.Fatalf("%s stream %d (%d pending bits): emit wrote %d bits, oracle %d", name, stream, pending, got.BitsWritten(), want.BitsWritten())
			}
			if g, w := flushBits(&got), flushBits(&want); !bytes.Equal(g, w) {
				t.Fatalf("%s stream %d (%d pending bits): %d bytes differ from the oracle's %d", name, stream, pending, len(g), len(w))
			}
		}
	}
}

// benchCorpora runs fn under one sub-benchmark per corpus and size: the
// bulk workload's wiki and CAN generators at a serving request size
// (16 KiB) and at the bulk size (4 MiB).
func benchCorpora(b *testing.B, fn func(b *testing.B, data []byte)) {
	for _, c := range []struct {
		name string
		gen  workload.Generator
	}{{"wiki", workload.Wiki}, {"can", workload.CAN}} {
		for _, size := range []struct {
			name string
			n    int
		}{{"16KiB", 16 << 10}, {"4MiB", 4 << 20}} {
			data := c.gen(size.n, 1)
			b.Run(c.name+"/"+size.name, func(b *testing.B) { fn(b, data) })
		}
	}
}

// BenchmarkEncoders times each block policy's one-shot encoder on the
// same command streams: fixed only, dynamic only, and the cheapest of
// stored, fixed and dynamic.
func BenchmarkEncoders(b *testing.B) {
	encoders := []struct {
		name string
		fn   func(cmds []token.Command, src []byte) ([]byte, error)
	}{
		{"FixedDeflate", func(c []token.Command, _ []byte) ([]byte, error) { return FixedDeflate(c) }},
		{"DynamicDeflate", func(c []token.Command, _ []byte) ([]byte, error) { return DynamicDeflate(c) }},
		{"BestDeflate", BestDeflate},
	}
	benchCorpora(b, func(b *testing.B, data []byte) {
		cmds, _, err := lzss.Compress(data, lzss.HWSpeedParams())
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range encoders {
			b.Run(e.name, func(b *testing.B) {
				b.SetBytes(int64(len(data)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := e.fn(cmds, data); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})
}
