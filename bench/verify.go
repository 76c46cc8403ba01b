package main

import (
	"bytes"
	"compress/zlib"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// checkZlib inflates z with the standard library, against dict when it
// is non-nil, and compares the result with want.
func checkZlib(z, dict, want []byte) error {
	var r io.ReadCloser
	var err error
	if dict != nil {
		r, err = zlib.NewReaderDict(bytes.NewReader(z), dict)
	} else {
		r, err = zlib.NewReader(bytes.NewReader(z))
	}
	if err != nil {
		return fmt.Errorf("compress/zlib: %w", err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("compress/zlib: %w", err)
	}
	if !bytes.Equal(got, want) {
		return errors.New("stream inflates to different bytes")
	}
	return nil
}

// ledger holds a serving run's responses until the end of the phase,
// when they are verified, so verification takes no CPU from a timed
// phase. A request that can repeat (no nonce) keeps its first verified
// response, and each repeat is compared with it byte for byte; unique
// requests are dropped once verified.
type ledger struct {
	mu         sync.Mutex
	first      map[op][]byte
	pending    []response
	verified   int64
	mismatches int64
	raw, comp  int64 // compress requests: payload and response bytes
}

var errRepeat = errors.New("differs from the first response to the same request")

type response struct {
	o op
	b []byte
}

func newLedger() *ledger { return &ledger{first: map[op][]byte{}} }

func (l *ledger) record(o op, raw int, b []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !o.decompress {
		l.raw += int64(raw)
		l.comp += int64(len(b))
	}
	l.pending = append(l.pending, response{o, b})
}

// verify runs check on every response recorded since the last call, or
// compares a repeat with the first verified response to its request.
func (l *ledger) verify(check func(op, []byte) error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range l.pending {
		prev, repeat := l.first[r.o]
		var err error
		if !repeat {
			err = check(r.o, r.b)
		} else if !bytes.Equal(prev, r.b) {
			err = errRepeat
		}
		if err != nil {
			if l.mismatches < 5 {
				fmt.Fprintf(os.Stderr, "bench: response to %+v: %v\n", r.o, err)
			}
			l.mismatches++
			continue
		}
		l.verified++
		if r.o.nonce == 0 && !repeat {
			l.first[r.o] = r.b
		}
	}
	l.pending = nil
}
