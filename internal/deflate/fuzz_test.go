package deflate

import (
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"testing"

	"lzssfpga/internal/lzss"
	"lzssfpga/internal/token"
	"lzssfpga/internal/workload"
)

// Native fuzz targets (run as seed-corpus tests under `go test`, and as
// mutation fuzzers under `go test -fuzz=...`).

// FuzzInflate feeds arbitrary bytes to every decoder entry point. They
// must reject or decode, never panic, and type every rejection as
// ErrCorrupt. Under tight limits the limited decoders must honor
// MaxOutputBytes exactly. Under a 1 MiB cap InflateLimited is the
// differential oracle: it agrees with compress/flate on accepting or
// rejecting the stream, and on the bytes, except on a stream flate
// decodes past the cap; StreamInflater and token.Expand(ParseCommands(x))
// agree with it.
func FuzzInflate(f *testing.F) {
	seed, _ := FixedDeflate(nil)
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00, 0x00, 0xFF, 0xFF})
	f.Add([]byte{0x78, 0x01, 0x03, 0x00, 0x00, 0x00, 0x00, 0x01})
	// Fixed and dynamic streams of wiki text reach the fast symbol loop,
	// which needs 8 bytes of input and fastMargin bytes of output room,
	// so mutation reaches its literal pairs, word copies and short
	// overlapping copies.
	for _, n := range []int{2 << 10, 4 << 10} {
		cmds, _, err := lzss.Compress(workload.Wiki(n, 1), lzss.HWSpeedParams())
		if err != nil {
			f.Fatal(err)
		}
		for _, enc := range []func([]token.Command) ([]byte, error){FixedDeflate, DynamicDeflate} {
			body, err := enc(cmds)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(body)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		limited := func(name string, dec func([]byte, DecodeLimits) ([]byte, error), lim DecodeLimits) ([]byte, error) {
			t.Helper()
			out, err := dec(data, lim)
			if err == nil && len(out) > lim.MaxOutputBytes {
				t.Fatalf("%s produced %d bytes over a %d cap", name, len(out), lim.MaxOutputBytes)
			}
			if err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s error not wrapping ErrCorrupt: %v", name, err)
			}
			return out, err
		}
		tight := DecodeLimits{MaxOutputBytes: 1 << 16, MaxBlocks: 1 << 10}
		limited("InflateLimited", InflateLimited, tight)               //nolint:errcheck
		limited("ZlibDecompressLimited", ZlibDecompressLimited, tight) //nolint:errcheck
		GzipDecompress(data)                                           //nolint:errcheck

		// The differential shares the default block cap with
		// ParseCommands, which decodes under DefaultDecodeLimits.
		lim := DefaultDecodeLimits()
		lim.MaxOutputBytes = 1 << 20
		out, err := limited("InflateLimited", InflateLimited, lim)
		upToCap := func(r io.Reader) ([]byte, error) {
			return io.ReadAll(io.LimitReader(r, int64(lim.MaxOutputBytes)+1))
		}
		want, ferr := upToCap(flate.NewReader(bytes.NewReader(data)))
		sout, serr := upToCap(NewStreamInflater(bytes.NewReader(data)))
		cmds, perr := ParseCommands(data)
		if perr != nil && !errors.Is(perr, ErrCorrupt) {
			t.Fatalf("ParseCommands error not wrapping ErrCorrupt: %v", perr)
		}
		if errors.Is(err, ErrLimit) {
			if ferr == nil && len(want) <= lim.MaxOutputBytes {
				t.Fatalf("InflateLimited hit its %d-byte cap; compress/flate decodes %d bytes", lim.MaxOutputBytes, len(want))
			}
			return
		}
		agree := func(name string, got []byte, gerr error) {
			t.Helper()
			if (err == nil) != (gerr == nil) {
				t.Fatalf("InflateLimited: %v; %s: %v", err, name, gerr)
			}
			if err == nil && !bytes.Equal(out, got) {
				t.Fatalf("%s decodes %d bytes unlike InflateLimited's %d", name, len(got), len(out))
			}
		}
		agree("compress/flate", want, ferr)
		agree("StreamInflater", sout, serr)
		var p []byte
		if perr == nil {
			p, perr = token.Expand(cmds)
		}
		agree("ParseCommands", p, perr)
	})
}

// FuzzRoundTrip compresses arbitrary data through the full pipeline and
// requires exact reproduction, with stdlib agreement.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte("snowy snow"), uint8(0))
	f.Add([]byte{}, uint8(1))
	f.Add(bytes.Repeat([]byte{0xAA, 0xBB}, 300), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		p := lzss.HWSpeedParams()
		cmds, _, err := lzss.Compress(data, p)
		if err != nil {
			t.Fatal(err)
		}
		var body []byte
		switch mode % 3 {
		case 0:
			body, err = FixedDeflate(cmds)
		case 1:
			body, err = DynamicDeflate(cmds)
		default:
			body, err = BestDeflate(cmds, data)
		}
		if err != nil {
			t.Fatal(err)
		}
		out, err := Inflate(body)
		if err != nil || !bytes.Equal(out, data) {
			t.Fatalf("own inflater round trip failed: %v", err)
		}
		sr := flate.NewReader(bytes.NewReader(body))
		sout, err := io.ReadAll(sr)
		if err != nil || !bytes.Equal(sout, data) {
			t.Fatalf("stdlib round trip failed: %v", err)
		}
	})
}
