package deflate

import (
	"testing"

	"lzssfpga/internal/lzss"
	"lzssfpga/internal/token"
	"lzssfpga/internal/workload"
)

// TestEncodersRejectInvalidCommands runs commands the Deflate tables
// cannot encode, each after one literal, through every encoder entry
// point: each call must return an error, and none may panic. The
// choosing encoders count the block before they emit it, so the count
// must reject what the emit loop would.
func TestEncodersRejectInvalidCommands(t *testing.T) {
	bad := []token.Command{
		token.Copy(0, 3), token.Copy(1, 2), token.Copy(1, 300), token.Copy(40000, 3), {K: 7},
	}
	src := []byte("a")
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
				if _, err := e.fn([]token.Command{token.Lit('a'), c}); err == nil {
					t.Errorf("%s accepted %#v", e.name, c)
				}
			}()
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
