package deflate

import (
	"bytes"
	"context"
	"fmt"

	"lzssfpga/internal/engine"
)

// ResilienceReport summarizes one ParallelCompress run: its segment
// count and, on the resilient path, what the recovery machinery had to
// do.
type ResilienceReport struct {
	// Segments is the segment count; Retries how many attempts beyond
	// each segment's first were needed; PanicsRecovered how many
	// attempts ended in a recovered panic; Degraded how many segments
	// fell back to stored blocks after exhausting their retry budget.
	Segments        int
	Retries         int
	PanicsRecovered int
	Degraded        int
}

// compressSegmentResilient drives the attempt loop for one segment.
// It returns nil when the retry budget is exhausted (the caller
// degrades to stored blocks); ctx cancellation also returns nil — the
// caller notices ctx and fails the segment.
func (r *parallelRun) compressSegmentResilient(sw *segWorker, buf []byte, origin, seg int, final bool) *engine.Buf {
	for attempt := 0; attempt <= r.o.MaxSegmentRetries; attempt++ {
		if r.ctx.Err() != nil {
			return nil
		}
		if attempt > 0 {
			r.retries.Add(1)
		}
		attemptCtx := r.ctx
		cancel := context.CancelFunc(func() {})
		if r.o.SegmentTimeout > 0 {
			attemptCtx, cancel = context.WithTimeout(r.ctx, r.o.SegmentTimeout)
		}
		body, err := r.attemptSegment(attemptCtx, sw, buf, origin, seg, attempt, final)
		cancel()
		if err != nil {
			continue
		}
		// Self-check: the body plus a final empty stored block is an
		// independently decodable Deflate stream — re-inflate and compare.
		// Segments with carried history reference bytes outside
		// themselves and cannot be checked in isolation.
		if origin == 0 {
			if err := verifySegment(body.B, buf, final); err != nil {
				engine.PutBuf(body)
				continue
			}
		}
		return body
	}
	return nil
}

// attemptSegment runs one guarded attempt: hook, then the normal
// segment compressor, with any panic recovered, counted, and the
// worker's matcher state scrubbed before reuse. A panic abandons the
// attempt's arena buffer to the garbage collector — the worker's
// buffer reference may itself be mid-update and cannot be trusted.
func (r *parallelRun) attemptSegment(ctx context.Context, sw *segWorker, buf []byte, origin, seg, attempt int,
	final bool) (body *engine.Buf, err error) {
	defer func() {
		if p := recover(); p != nil {
			r.panics.Add(1)
			if k := deflateObs.Load(); k != nil {
				k.workerPanics.Inc()
			}
			// The panic may have left the matcher mid-update; Reset
			// rebuilds its hash state from scratch.
			sw.m.Reset(nil)
			sw.enc.bw.Reset(nil)
			body, err = nil, fmt.Errorf("%w: recovered worker panic: %v", ErrCorrupt, p)
		}
	}()
	if hook := r.o.SegmentHook; hook != nil {
		if err := hook(ctx, seg, attempt); err != nil {
			return nil, err
		}
	}
	return sw.compressSegment(buf, origin, final, segHint(len(buf)-origin))
}

// verifySegment re-inflates a segment body independently and requires
// byte-exact agreement with the source. Non-final bodies end with a
// non-final empty stored block; appending a final empty stored block
// makes them complete streams.
var finalEmptyStored = []byte{0x01, 0x00, 0x00, 0xFF, 0xFF}

func verifySegment(body, want []byte, final bool) error {
	stream := body
	if !final {
		stream = make([]byte, 0, len(body)+len(finalEmptyStored))
		stream = append(stream, body...)
		stream = append(stream, finalEmptyStored...)
	}
	got, err := InflateLimited(stream, DecodeLimits{MaxOutputBytes: len(want), MaxBlocks: 1 << 20})
	if err != nil {
		return fmt.Errorf("deflate: segment self-check: %w", err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%w: segment self-check mismatch", ErrCorrupt)
	}
	return nil
}

// storedSegment encodes chunk as raw stored blocks with the same
// framing contract as compressSegment: byte-aligned body in an arena
// buffer, trailing empty stored block carrying the final flag. It
// cannot fail — it is the degradation target when compression itself
// is what's faulty.
func storedSegment(chunk []byte, final bool) *engine.Buf {
	const maxStored = 65535
	nBlocks := (len(chunk) + maxStored - 1) / maxStored
	b := engine.GetBuf(len(chunk) + 5*(nBlocks+1))
	out := b.B
	for len(chunk) > 0 {
		n := len(chunk)
		if n > maxStored {
			n = maxStored
		}
		out = append(out, 0x00, byte(n), byte(n>>8), byte(^n), byte(^n>>8))
		out = append(out, chunk[:n]...)
		chunk = chunk[n:]
	}
	b0 := byte(0x00)
	if final {
		b0 = 0x01
	}
	out = append(out, b0, 0x00, 0x00, 0xFF, 0xFF)
	b.B = out
	return b
}
