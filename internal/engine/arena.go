package engine

import (
	"math/bits"
	"sync"
)

// Size-classed buffer arena: power-of-two sync.Pool classes from 4 KiB
// to 8 MiB. Segment output bodies cycle through it — a worker takes a
// buffer, fills it, the assembler appends it into the request output and
// puts it back — so the steady-state request path performs no
// per-segment allocation. sync.Pool already keeps a LIFO cache per P,
// so a buffer put back on one core is usually the next one that core
// gets. Buffers travel as *Buf so the pools store a stable pointer (a
// bare []byte would box a fresh interface header on every Put, an
// allocation per segment — exactly what the arena exists to avoid).
// Oversized requests fall through to the allocator, keeping the pooled
// footprint bounded.

// Buf is an arena-owned byte buffer. B may be appended to freely (the
// possibly regrown slice is what PutBuf reclassifies).
type Buf struct {
	B []byte
}

const (
	arenaMinBits = 12 // 4 KiB
	arenaMaxBits = 23 // 8 MiB
	arenaClasses = arenaMaxBits - arenaMinBits + 1
)

var arena [arenaClasses]sync.Pool

// classFor returns the smallest class whose buffers hold n bytes, or -1
// when n exceeds the largest class.
func classFor(n int) int {
	if n <= 1<<arenaMinBits {
		return 0
	}
	c := bits.Len(uint(n-1)) - arenaMinBits
	if c >= arenaClasses {
		return -1
	}
	return c
}

// GetBuf returns a buffer with zero length and capacity at least n,
// pooled when n fits a size class.
func GetBuf(n int) *Buf {
	k := engObs.Load()
	if k != nil {
		k.arenaGets.Inc()
	}
	c := classFor(n)
	if c >= 0 {
		if v := arena[c].Get(); v != nil {
			b := v.(*Buf)
			b.B = b.B[:0]
			return b
		}
		n = 1 << (arenaMinBits + c)
	}
	if k != nil {
		k.arenaMisses.Inc()
	}
	return &Buf{B: make([]byte, 0, n)}
}

// PutBuf recycles b into the class its current capacity fills (appends
// may have grown it past its birth class). Buffers below the minimum
// class are dropped, buffers above the maximum are clipped into the top
// class. nil is a no-op; the caller must not touch b afterwards.
func PutBuf(b *Buf) {
	if b == nil || cap(b.B) < 1<<arenaMinBits {
		return
	}
	c := bits.Len(uint(cap(b.B))) - 1 - arenaMinBits // largest class <= cap
	if c >= arenaClasses {
		c = arenaClasses - 1
	}
	b.B = b.B[:0]
	arena[c].Put(b)
}
