package deflate

import (
	"bytes"
	"compress/gzip"
	"io"
	"testing"

	"lzssfpga/internal/lzss"
	"lzssfpga/internal/token"
	"lzssfpga/internal/workload"
)

func TestGzipStdlibDecodesOurs(t *testing.T) {
	data := workload.Wiki(300_000, 80)
	z, err := GzipCompress(data, lzss.HWSpeedParams(), "trace.log")
	if err != nil {
		t.Fatal(err)
	}
	gr, err := gzip.NewReader(bytes.NewReader(z))
	if err != nil {
		t.Fatalf("stdlib rejected our gzip header: %v", err)
	}
	if gr.Name != "trace.log" {
		t.Fatalf("stdlib read name %q", gr.Name)
	}
	out, err := io.ReadAll(gr)
	if err != nil || !bytes.Equal(out, data) {
		t.Fatalf("stdlib gzip round trip failed: %v", err)
	}
}

func TestGzipWeDecodeStdlib(t *testing.T) {
	data := workload.CAN(200_000, 81)
	var buf bytes.Buffer
	gw, _ := gzip.NewWriterLevel(&buf, gzip.BestCompression)
	gw.Name = "canbus.bin"
	gw.Write(data)
	gw.Close()
	out, name, err := GzipDecompress(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) || name != "canbus.bin" {
		t.Fatalf("mismatch (name %q)", name)
	}
}

func TestGzipRoundTripOwn(t *testing.T) {
	for _, n := range []int{0, 1, 1000, 100_000} {
		data := workload.Bitstream(n, int64(n))
		z, err := GzipCompress(data, lzss.HWSpeedParams(), "")
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		out, name, err := GzipDecompress(z)
		if err != nil || !bytes.Equal(out, data) || name != "" {
			t.Fatalf("n=%d: round trip failed: %v", n, err)
		}
	}
}

func TestGzipDetectsCorruption(t *testing.T) {
	data := []byte("checksummed gzip payload")
	z, err := GzipCompress(data, lzss.HWSpeedParams(), "")
	if err != nil {
		t.Fatal(err)
	}
	flip := func(i int) []byte {
		bad := append([]byte(nil), z...)
		bad[i] ^= 1
		return bad
	}
	// GzipDecompress and GzipCommands read the container alike: each
	// rejects every damaged stream.
	for _, c := range []struct {
		what string
		in   []byte
	}{
		{"corrupt crc", flip(len(z) - 5)},
		{"corrupt isize", flip(len(z) - 1)},
		{"bad magic", flip(0)},
		{"truncated stream", z[:10]},
	} {
		if _, _, err := GzipDecompress(c.in); err == nil {
			t.Fatalf("GzipDecompress: %s accepted", c.what)
		}
		if _, err := GzipCommands(c.in); err == nil {
			t.Fatalf("GzipCommands: %s accepted", c.what)
		}
	}
}

func TestGzipRejectsNulName(t *testing.T) {
	if _, err := GzipWrap([]byte{3, 0}, nil, "a\x00b"); err == nil {
		t.Fatal("NUL in name accepted")
	}
}

func TestGzipCommands(t *testing.T) {
	data := workload.Wiki(50_000, 82)
	z, err := GzipCompress(data, lzss.HWSpeedParams(), "named")
	if err != nil {
		t.Fatal(err)
	}
	cmds, err := GzipCommands(z)
	if err != nil {
		t.Fatal(err)
	}
	out, err := token.Expand(cmds)
	if err != nil || !bytes.Equal(out, data) {
		t.Fatalf("command view does not reproduce data: %v", err)
	}
}

func TestZlibDictStdlibInterop(t *testing.T) {
	// An embedded-logger dictionary of common record boilerplate.
	dict := []byte("engine rpm= temp= state=OK gps lat= lon= alt= frame id=0x dlc=8 data=")
	data := []byte("engine rpm=3450 temp=87 state=OK frame id=0x1A2 dlc=8 data=00FF341200AA90E1 gps lat=49.44 lon=7.75 alt=236")

	p := lzss.HWSpeedParams()
	p.Window = 32768
	z, err := ZlibCompressDict(data, dict, p)
	if err != nil {
		t.Fatal(err)
	}
	// Stdlib must decode it given the same dictionary.
	zr, err := zlibNewReaderDict(bytes.NewReader(z), dict)
	if err != nil {
		t.Fatalf("stdlib rejected FDICT stream: %v", err)
	}
	out, err := io.ReadAll(zr)
	if err != nil || !bytes.Equal(out, data) {
		t.Fatalf("stdlib dict round trip failed: %v", err)
	}
	// Our decoder too.
	own, err := ZlibDecompressDict(z, dict)
	if err != nil || !bytes.Equal(own, data) {
		t.Fatalf("own dict round trip failed: %v", err)
	}
	// Wrong dictionary must be rejected by DICTID.
	if _, err := ZlibDecompressDict(z, []byte("wrong")); err == nil {
		t.Fatal("wrong dictionary accepted")
	}
	// The containers do not cross: the plain decoder refuses an FDICT
	// stream, and a nil dictionary is an empty one, so the dictionary
	// decoder still refuses a plain stream.
	if _, err := ZlibDecompress(z); err == nil {
		t.Fatal("FDICT stream decoded without its dictionary")
	}
	var plain bytes.Buffer
	zw, err := zlibNewWriterDict(&plain, nil)
	if err != nil {
		t.Fatal(err)
	}
	zw.Write(data)
	zw.Close()
	if _, err := ZlibDecompressDict(plain.Bytes(), nil); err == nil {
		t.Fatal("plain stream decoded by the dictionary decoder")
	}
}

func TestZlibDictWeDecodeStdlib(t *testing.T) {
	dict := bytes.Repeat([]byte("shared prefix material "), 20)
	data := append(append([]byte{}, dict[:100]...), []byte(" plus novel content 12345")...)
	var buf bytes.Buffer
	zw, err := zlibNewWriterDict(&buf, dict)
	if err != nil {
		t.Fatal(err)
	}
	zw.Write(data)
	zw.Close()
	out, err := ZlibDecompressDict(buf.Bytes(), dict)
	if err != nil || !bytes.Equal(out, data) {
		t.Fatalf("decode of stdlib FDICT stream failed: %v", err)
	}
}

func TestDictImprovesShortBlockRatio(t *testing.T) {
	// The point of preset dictionaries: short blocks full of known
	// boilerplate compress far better.
	dict := bytes.Repeat([]byte("timestamp= level=INFO module=can msg="), 10)
	data := []byte("timestamp=103456 level=INFO module=can msg=frame received")
	p := lzss.HWSpeedParams()
	plain, err := ZlibCompress(mustCmds(t, data, p), data, p.Window)
	if err != nil {
		t.Fatal(err)
	}
	withDict, err := ZlibCompressDict(data, dict, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(withDict) >= len(plain) {
		t.Fatalf("dictionary did not help: %d vs %d bytes", len(withDict), len(plain))
	}
}

func mustCmds(t *testing.T, data []byte, p lzss.Params) []token.Command {
	t.Helper()
	cmds, _, err := lzss.Compress(data, p)
	if err != nil {
		t.Fatal(err)
	}
	return cmds
}
