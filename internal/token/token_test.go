package token

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCommandValidate(t *testing.T) {
	cases := []struct {
		c  Command
		ok bool
	}{
		{Lit(0), true},
		{Lit(255), true},
		{Copy(1, MinMatch), true},
		{Copy(MaxDistance, MaxMatch), true},
		{Copy(0, 10), false},
		{Copy(MaxDistance+1, 10), false},
		{Copy(5, MinMatch-1), false},
		{Copy(5, MaxMatch+1), false},
		{Command{K: Kind(9)}, false},
	}
	for _, c := range cases {
		err := c.c.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%v: Validate() = %v, want ok=%v", c.c, err, c.ok)
		}
	}
}

func TestExpandLiterals(t *testing.T) {
	cmds := []Command{Lit('a'), Lit('b'), Lit('c')}
	out, err := Expand(cmds)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "abc" {
		t.Fatalf("got %q", out)
	}
}

func TestExpandPaperExample(t *testing.T) {
	// Paper §III: compressing "snowy snow" results in 7 commands — 6
	// literals for "snowy " and 1 copy of 4 bytes from distance 6.
	cmds := []Command{
		Lit('s'), Lit('n'), Lit('o'), Lit('w'), Lit('y'), Lit(' '),
		Copy(6, 4),
	}
	out, err := Expand(cmds)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "snowy snow" {
		t.Fatalf("got %q, want %q", out, "snowy snow")
	}
}

func TestExpandOverlappingCopy(t *testing.T) {
	// RLE idiom: distance 1, length 5 replicates the last byte.
	cmds := []Command{Lit('x'), Copy(1, 5)}
	out, err := Expand(cmds)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "xxxxxx" {
		t.Fatalf("got %q", out)
	}
}

func TestExpandRejectsTooFarBack(t *testing.T) {
	cmds := []Command{Lit('a'), Copy(2, 3)}
	if _, err := Expand(cmds); !errors.Is(err, ErrStream) {
		t.Fatalf("want ErrStream, got %v", err)
	}
}

func TestValidateStream(t *testing.T) {
	good := []Command{Lit('a'), Lit('b'), Lit('c'), Copy(3, 3)}
	if err := ValidateStream(good, 4096); err != nil {
		t.Fatal(err)
	}
	badDist := []Command{Lit('a'), Copy(5, 3)}
	if err := ValidateStream(badDist, 4096); !errors.Is(err, ErrStream) {
		t.Fatalf("want ErrStream, got %v", err)
	}
	tooWide := []Command{}
	for i := 0; i < 300; i++ {
		tooWide = append(tooWide, Lit(byte(i)))
	}
	tooWide = append(tooWide, Copy(256, 3))
	if err := ValidateStream(tooWide, 128); !errors.Is(err, ErrStream) {
		t.Fatalf("window check: want ErrStream, got %v", err)
	}
}

func TestStreamLen(t *testing.T) {
	cmds := []Command{Lit('a'), Copy(1, 10), Lit('b')}
	if got := StreamLen(cmds); got != 12 {
		t.Fatalf("StreamLen = %d, want 12", got)
	}
}

func TestEqualAndFirstDiff(t *testing.T) {
	a := []Command{Lit('a'), Copy(1, 3)}
	b := []Command{Lit('a'), Copy(1, 3)}
	if !Equal(a, b) || FirstDiff(a, b) != -1 {
		t.Fatal("identical streams reported different")
	}
	c := []Command{Lit('a'), Copy(2, 3)}
	if Equal(a, c) {
		t.Fatal("different streams reported equal")
	}
	if FirstDiff(a, c) != 1 {
		t.Fatalf("FirstDiff = %d, want 1", FirstDiff(a, c))
	}
	d := []Command{Lit('a')}
	if FirstDiff(a, d) != 1 {
		t.Fatalf("length diff: FirstDiff = %d, want 1", FirstDiff(a, d))
	}
}

func TestDistanceBits(t *testing.T) {
	for _, c := range []struct {
		window int
		bits   uint
		ok     bool
	}{
		{1024, 10, true},
		{4096, 12, true},
		{32768, 15, true},
		{1000, 0, false},
		{65536, 0, false},
		{0, 0, false},
	} {
		got, err := DistanceBits(c.window)
		if (err == nil) != c.ok {
			t.Errorf("DistanceBits(%d) err=%v, want ok=%v", c.window, err, c.ok)
			continue
		}
		if c.ok && got != c.bits {
			t.Errorf("DistanceBits(%d) = %d, want %d", c.window, got, c.bits)
		}
	}
}

func randomStream(rng *rand.Rand, n, window int) []Command {
	var cmds []Command
	produced := 0
	for len(cmds) < n {
		if produced == 0 || rng.Intn(3) > 0 {
			cmds = append(cmds, Lit(byte(rng.Intn(256))))
			produced++
			continue
		}
		maxD := produced
		if maxD >= window { // wire format cannot express distance == window
			maxD = window - 1
		}
		d := 1 + rng.Intn(maxD)
		l := MinMatch + rng.Intn(MaxMatch-MinMatch+1)
		cmds = append(cmds, Copy(d, l))
		produced += l
	}
	return cmds
}

func TestWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, window := range []int{1024, 4096, 32768} {
		for trial := 0; trial < 20; trial++ {
			cmds := randomStream(rng, 200, window)
			bw := newBW()
			ww, err := NewWireWriter(bw, window)
			if err != nil {
				t.Fatal(err)
			}
			if err := ww.WriteAll(cmds); err != nil {
				t.Fatal(err)
			}
			wr, err := NewWireReader(newBR(flushBW(bw)), window)
			if err != nil {
				t.Fatal(err)
			}
			got, err := wr.ReadN(len(cmds))
			if err != nil {
				t.Fatal(err)
			}
			if !Equal(cmds, got) {
				i := FirstDiff(cmds, got)
				t.Fatalf("window %d trial %d: diff at %d: %v vs %v", window, trial, i, cmds[i], got[i])
			}
		}
	}
}

func TestWireRejectsWindowDistance(t *testing.T) {
	ww, err := NewWireWriter(newBW(), 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := ww.Write(Copy(1024, 5)); err == nil {
		t.Fatal("distance == window must be rejected (aliases literal marker)")
	}
	if err := ww.Write(Copy(1023, 5)); err != nil {
		t.Fatalf("distance window-1 must be accepted: %v", err)
	}
}

func TestWireBitsPerCommand(t *testing.T) {
	ww, err := NewWireWriter(newBW(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	if got := ww.BitsPerCommand(); got != 20 {
		t.Fatalf("BitsPerCommand = %d, want 20", got)
	}
}

func TestQuickExpandValidate(t *testing.T) {
	// Property: any stream accepted by ValidateStream expands without
	// error and produces StreamLen bytes.
	rng := rand.New(rand.NewSource(99))
	f := func(seed int64) bool {
		cmds := randomStream(rand.New(rand.NewSource(seed^rng.Int63())), 100, 32768)
		if ValidateStream(cmds, 32768) != nil {
			return false
		}
		out, err := Expand(cmds)
		return err == nil && len(out) == StreamLen(cmds)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCommandString(t *testing.T) {
	if s := Lit('a').String(); s != `lit("a")` {
		t.Fatalf("got %s", s)
	}
	if s := Copy(6, 4).String(); s != "copy(d=6,l=4)" {
		t.Fatalf("got %s", s)
	}
}

func TestExpandWithHistory(t *testing.T) {
	hist := []byte("0123456789")
	cmds := []Command{Copy(10, 4), Lit('x'), Copy(5, 3)}
	out, err := ExpandWithHistory(hist, cmds)
	if err != nil {
		t.Fatal(err)
	}
	// Copy(10,4) = "0123"; lit x; Copy(5,3): 5 back from "0123x" end is
	// "123xx"[0:3]... produced so far "0123x", 5 back reaches hist[len-1]
	// = "9" then "0","1": "9 0 1"? Verify by construction:
	want := append([]byte{}, hist...)
	want = append(want, hist[0:4]...)
	want = append(want, 'x')
	for j := 0; j < 3; j++ {
		want = append(want, want[len(want)-5])
	}
	if string(out) != string(want[len(hist):]) {
		t.Fatalf("got %q want %q", out, want[len(hist):])
	}
	if _, err := ExpandWithHistory(hist, []Command{Copy(11, 3)}); err == nil {
		t.Fatal("distance beyond history accepted")
	}
	empty, err := ExpandWithHistory(nil, []Command{Lit('a')})
	if err != nil || string(empty) != "a" {
		t.Fatalf("nil history: %q %v", empty, err)
	}
}

func TestWireGoldenVector(t *testing.T) {
	// Format stability: the paper's example stream at a 4 KiB window
	// (12-bit D field) packs to these exact bytes, LSB-first.
	cmds := []Command{
		Lit('s'), Lit('n'), Lit('o'), Lit('w'), Lit('y'), Lit(' '),
		Copy(6, 4),
	}
	bw := newBW()
	ww, err := NewWireWriter(bw, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := ww.WriteAll(cmds); err != nil {
		t.Fatal(err)
	}
	buf := flushBW(bw)
	// 7 commands x 20 bits = 140 bits -> 18 bytes.
	if buf.Len() != 18 {
		t.Fatalf("wire length %d, want 18", buf.Len())
	}
	wr, err := NewWireReader(newBR(bytes.NewBuffer(buf.Bytes())), 4096)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wr.ReadN(7)
	if err != nil || !Equal(got, cmds) {
		t.Fatalf("golden wire vector does not decode: %v", err)
	}
}
