package checksum

import (
	"hash/adler32"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAdlerMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 17, 5551, 5552, 5553, 100000} {
		data := make([]byte, n)
		rng.Read(data)
		if got, want := Adler32Sum(data), adler32.Checksum(data); got != want {
			t.Fatalf("n=%d: adler %08x, want %08x", n, got, want)
		}
	}
}

func TestAdlerIncrementalAndCount(t *testing.T) {
	data := []byte("incremental adler over several writes")
	h := NewAdler32()
	total := 0
	for i := 0; i < len(data); i += 7 {
		end := i + 7
		if end > len(data) {
			end = len(data)
		}
		n, err := h.Write(data[i:end])
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if total != len(data) {
		t.Fatalf("Write reported %d bytes, want %d", total, len(data))
	}
	if h.Sum32() != adler32.Checksum(data) {
		t.Fatal("incremental checksum differs")
	}
}

func TestCRCMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 64, 65536} {
		data := make([]byte, n)
		rng.Read(data)
		if got, want := CRC32(data), crc32.ChecksumIEEE(data); got != want {
			t.Fatalf("n=%d: crc %08x, want %08x", n, got, want)
		}
	}
}

// specCRCTable is the byte-wise table for the reflected IEEE
// polynomial, written from the specification: the oracle CRC32 is
// checked against.
var specCRCTable = func() (t [256]uint32) {
	for i := range t {
		c := uint32(i)
		for k := 0; k < 8; k++ {
			if c&1 != 0 {
				c = 0xEDB88320 ^ (c >> 1)
			} else {
				c >>= 1
			}
		}
		t[i] = c
	}
	return t
}()

// specCRC32Update is the oracle: one table lookup per byte.
func specCRC32Update(crc uint32, data []byte) uint32 {
	c := ^crc
	for _, b := range data {
		c = specCRCTable[(c^uint32(b))&0xFF] ^ (c >> 8)
	}
	return ^c
}

// TestCRCMatchesSpecTable checks CRC32 and CRC32Update against the
// byte-wise oracle at every length and alignment around the block
// sizes the vectorized path switches on, and anchors the oracle to the
// standard check value.
func TestCRCMatchesSpecTable(t *testing.T) {
	if got := specCRC32Update(0, []byte("123456789")); got != 0xCBF43926 {
		t.Fatalf("oracle check value %08x, want cbf43926", got)
	}
	rng := rand.New(rand.NewSource(4))
	data := make([]byte, 70000)
	rng.Read(data)
	lengths := []int{1500, 4096, 65536, 69990}
	for n := 0; n <= 300; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for _, off := range []int{0, 1, 7} {
			p := data[off : off+n]
			want := specCRC32Update(0, p)
			if got := CRC32(p); got != want {
				t.Fatalf("n=%d off=%d: crc %08x, oracle %08x", n, off, got, want)
			}
			cut := n / 3
			if got := CRC32Update(CRC32Update(0, p[:cut]), p[cut:]); got != want {
				t.Fatalf("n=%d off=%d: split crc %08x, oracle %08x", n, off, got, want)
			}
		}
	}
}

func TestQuickBoth(t *testing.T) {
	f := func(data []byte) bool {
		return Adler32Sum(data) == adler32.Checksum(data) &&
			CRC32(data) == crc32.ChecksumIEEE(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCRC32UpdateIncremental(t *testing.T) {
	data := []byte("incremental crc with explicit continuation")
	c := uint32(0)
	for i := 0; i < len(data); i += 3 {
		end := i + 3
		if end > len(data) {
			end = len(data)
		}
		c = CRC32Update(c, data[i:end])
	}
	if c != crc32.ChecksumIEEE(data) {
		t.Fatal("incremental crc differs")
	}
}

// sink keeps the benchmarked checksums live, so the compiler cannot
// delete the loops that compute them.
var sink uint32

func BenchmarkCRC32(b *testing.B) {
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(3)).Read(data)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		sink += CRC32(data)
	}
}

func BenchmarkAdler32(b *testing.B) {
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(3)).Read(data)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		sink += Adler32Sum(data)
	}
}
