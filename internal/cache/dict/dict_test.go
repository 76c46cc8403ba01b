package dict

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"testing"

	"lzssfpga/internal/workload"
)

func TestValidName(t *testing.T) {
	good := []string{"wiki", "can", "json", "a", "log-v2", "0x-12", "abcdefghijklmnopqrstuvwxyz-01234"}
	for _, n := range good {
		if !ValidName(n) {
			t.Errorf("ValidName(%q) = false, want true", n)
		}
	}
	bad := []string{"", "Wiki", "has space", "uber/long", "x.y", "ümlaut",
		"abcdefghijklmnopqrstuvwxyz-012345"} // 33 chars
	for _, n := range bad {
		if ValidName(n) {
			t.Errorf("ValidName(%q) = true, want false", n)
		}
	}
}

func TestRegistryAddResolve(t *testing.T) {
	r := NewRegistry()
	if err := r.Add("wiki", []byte("dictionary content")); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("wiki", []byte("again")); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if err := r.Add("BAD", []byte("x")); err == nil {
		t.Fatal("invalid name accepted")
	}
	if err := r.Add("empty", nil); err == nil {
		t.Fatal("empty dictionary accepted")
	}
	d, err := r.Resolve("wiki")
	if err != nil || string(d) != "dictionary content" {
		t.Fatalf("Resolve: %q, %v", d, err)
	}
	if _, err := r.Resolve("nope"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown resolve err = %v, want ErrUnknown", err)
	}
	infos := r.List()
	if len(infos) != 1 || infos[0].Name != "wiki" || infos[0].Hits != 1 || infos[0].Bytes != len("dictionary content") {
		t.Fatalf("List: %+v", infos)
	}
	if infos[0].Adler == 0 {
		t.Fatal("Adler not computed")
	}
}

// Add must copy: mutating the caller's slice afterwards must not reach
// the registered bytes (streams across the fleet depend on them).
func TestRegistryCopies(t *testing.T) {
	r := NewRegistry()
	src := []byte("immutable")
	r.Add("d", src) //nolint:errcheck
	src[0] = 'X'
	d, _ := r.Peek("d")
	if string(d) != "immutable" {
		t.Fatalf("registry aliased caller bytes: %q", d)
	}
}

// Built-ins must be deterministic (fleet members must agree byte-wise)
// and pairwise distinct per class.
func TestBuiltinDeterministic(t *testing.T) {
	seen := map[string][]byte{}
	for _, class := range BuiltinClasses() {
		a, err := Builtin(class)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Builtin(class)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("class %q not deterministic", class)
		}
		if len(a) != builtinSize {
			t.Fatalf("class %q size %d, want %d", class, len(a), builtinSize)
		}
		for prev, pb := range seen {
			if bytes.Equal(a, pb) {
				t.Fatalf("classes %q and %q trained identical dictionaries", class, prev)
			}
		}
		seen[class] = a
	}
	if _, err := Builtin("nope"); err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestNewBuiltinRegistry(t *testing.T) {
	r, err := NewBuiltinRegistry()
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != len(BuiltinClasses()) {
		t.Fatalf("Len = %d", r.Len())
	}
	sub, err := NewBuiltinRegistry("json")
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 1 {
		t.Fatalf("subset Len = %d", sub.Len())
	}
	if _, err := NewBuiltinRegistry("bogus"); err == nil {
		t.Fatal("bogus class accepted")
	}
}

// A registered dictionary's Adler is the DICTID compress/zlib writes
// for the same bytes (RFC 1950 §2.2), so clients can match streams to
// dictionaries offline.
func TestAdlerMatchesRFC(t *testing.T) {
	for _, d := range [][]byte{[]byte("Wikipedia"), workload.Wiki(8<<10, 3)} {
		r := NewRegistry()
		if err := r.Add("d", d); err != nil {
			t.Fatal(err)
		}
		var z bytes.Buffer
		zw, err := zlib.NewWriterLevelDict(&z, zlib.DefaultCompression, d)
		if err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		dictID := binary.BigEndian.Uint32(z.Bytes()[2:6])
		if got := r.List()[0].Adler; got != dictID {
			t.Fatalf("%d-byte dictionary: Adler %08x, compress/zlib DICTID %08x", len(d), got, dictID)
		}
	}
	// Known vector: adler32("Wikipedia") = 0x11E60398.
	r := NewRegistry()
	r.Add("wiki", []byte("Wikipedia")) //nolint:errcheck
	if got := r.List()[0].Adler; got != 0x11E60398 {
		t.Fatalf("Adler = %08x, want 11E60398", got)
	}
}
