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

// specAdler32Update is the oracle: RFC 1950's sample loop, both sums
// reduced after every byte. s is a running checksum, 1 to start.
func specAdler32Update(s uint32, data []byte) uint32 {
	const base = 65521
	a, b := s&0xFFFF, s>>16
	for _, c := range data {
		a = (a + uint32(c)) % base
		b = (b + a) % base
	}
	return b<<16 | a
}

// TestAdlerMatchesSpec checks Adler32Sum and the streaming hasher the
// zlib Writer and Reader hold (hash/adler32's), whole and split across
// writes, against the byte-wise oracle at every short length, around
// the 5,552-byte block within which the sums cannot overflow, and on a
// megabyte of 0xFF, the input that drives the sums fastest toward
// overflow, each at three alignments. It anchors the oracle to the
// standard example value.
func TestAdlerMatchesSpec(t *testing.T) {
	if got := specAdler32Update(1, []byte("Wikipedia")); got != 0x11E60398 {
		t.Fatalf("oracle check value %08x, want 11e60398", got)
	}
	rng := rand.New(rand.NewSource(5))
	random := make([]byte, 65536+7)
	rng.Read(random)
	ones := make([]byte, 1<<20+7)
	for i := range ones {
		ones[i] = 0xFF
	}
	type input struct {
		data []byte
		n    int
	}
	var inputs []input
	for n := 0; n <= 300; n++ {
		inputs = append(inputs, input{random, n})
	}
	for _, n := range []int{5551, 5552, 5553, 65536} {
		inputs = append(inputs, input{random, n})
	}
	inputs = append(inputs, input{ones, 1 << 20})
	for _, in := range inputs {
		for _, off := range []int{0, 1, 7} {
			p := in.data[off : off+in.n]
			want := specAdler32Update(1, p)
			if got := Adler32Sum(p); got != want {
				t.Fatalf("n=%d off=%d: adler %08x, oracle %08x", in.n, off, got, want)
			}
			h := adler32.New()
			h.Write(p)
			if got := h.Sum32(); got != want {
				t.Fatalf("n=%d off=%d: streaming adler %08x, oracle %08x", in.n, off, got, want)
			}
			h = adler32.New()
			cut1, cut2 := in.n/3, 2*in.n/3+1
			for _, q := range [][]byte{p[:cut1], p[cut1:min(cut2, in.n)], p[min(cut2, in.n):]} {
				h.Write(q)
			}
			if got := h.Sum32(); got != want {
				t.Fatalf("n=%d off=%d: split adler %08x, oracle %08x", in.n, off, got, want)
			}
		}
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
