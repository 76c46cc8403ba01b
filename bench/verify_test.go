package main

import (
	"bytes"
	"compress/zlib"
	"testing"
)

func TestLedgerVerifiesAfterThePhase(t *testing.T) {
	want := bytes.Repeat([]byte("ledger "), 100)
	var z bytes.Buffer
	zw := zlib.NewWriter(&z)
	zw.Write(want) //nolint:errcheck // writes to a bytes.Buffer
	zw.Close()     //nolint:errcheck // writes to a bytes.Buffer
	check := func(_ op, resp []byte) error { return checkZlib(resp, nil, want) }

	l := newLedger()
	repeated := op{idx: 1}
	l.record(repeated, len(want), z.Bytes())
	l.record(repeated, len(want), z.Bytes())
	l.record(op{idx: 2, nonce: 9}, len(want), []byte("not zlib"))
	if l.verified != 0 || l.mismatches != 0 {
		t.Fatalf("recording verified %d and mismatched %d, want nothing checked before verify", l.verified, l.mismatches)
	}
	l.verify(check)
	if l.verified != 2 || l.mismatches != 1 {
		t.Fatalf("verified %d, mismatched %d; want 2 and 1", l.verified, l.mismatches)
	}
	// A later repeat that differs from the first verified response fails
	// without being inflated again.
	l.record(repeated, len(want), append(z.Bytes()[:z.Len():z.Len()], 0))
	l.verify(func(op, []byte) error { t.Fatal("a repeat was checked again"); return nil })
	if l.verified != 2 || l.mismatches != 2 {
		t.Fatalf("verified %d, mismatched %d; want 2 and 2", l.verified, l.mismatches)
	}
}
