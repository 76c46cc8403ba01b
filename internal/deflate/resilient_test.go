package deflate

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"lzssfpga/internal/lzss"
)

func resilientTestData(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i % 251)
	}
	return data
}

func TestResilientMatchesFastPath(t *testing.T) {
	data := resilientTestData(300 << 10)
	p := lzss.HWSpeedParams()
	want, err := compressPar(data, p, ParallelOpts{Segment: 64 << 10, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := ParallelCompress(context.Background(), data, p,
		ParallelOpts{Segment: 64 << 10, Workers: 4, Resilient: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resilient path without faults diverged from the fast path")
	}
	if rep.Retries != 0 || rep.Degraded != 0 || rep.PanicsRecovered != 0 {
		t.Fatalf("clean run reported recovery: %+v", rep)
	}
	if rep.Segments != 5 {
		t.Fatalf("segments = %d", rep.Segments)
	}
}

func TestResilientRecoversFromPanics(t *testing.T) {
	data := resilientTestData(200 << 10)
	p := lzss.HWSpeedParams()
	// Panic on every first attempt; succeed on retries.
	hook := func(ctx context.Context, seg, attempt int) error {
		if attempt == 0 {
			panic(fmt.Sprintf("injected panic in segment %d", seg))
		}
		return nil
	}
	out, rep, err := ParallelCompress(context.Background(), data, p,
		ParallelOpts{Segment: 32 << 10, Workers: 3, Resilient: true, SegmentHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PanicsRecovered != rep.Segments || rep.Retries != rep.Segments {
		t.Fatalf("expected one recovered panic + retry per segment: %+v", rep)
	}
	if rep.Degraded != 0 {
		t.Fatalf("retryable panics should not degrade: %+v", rep)
	}
	dec, err := ZlibDecompress(out)
	if err != nil || !bytes.Equal(dec, data) {
		t.Fatalf("round trip after recovered panics: %v", err)
	}
}

func TestResilientDegradesToStored(t *testing.T) {
	data := resilientTestData(100 << 10)
	p := lzss.HWSpeedParams()
	// Segment 1 never succeeds: every attempt errors.
	hook := func(ctx context.Context, seg, attempt int) error {
		if seg == 1 {
			return errors.New("injected permanent fault")
		}
		return nil
	}
	out, rep, err := ParallelCompress(context.Background(), data, p,
		ParallelOpts{Segment: 32 << 10, Workers: 2, Resilient: true, MaxSegmentRetries: 3, SegmentHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded != 1 {
		t.Fatalf("expected exactly the faulty segment degraded: %+v", rep)
	}
	dec, err := ZlibDecompress(out)
	if err != nil || !bytes.Equal(dec, data) {
		t.Fatalf("round trip with a degraded segment: %v", err)
	}
}

func TestResilientStallTimeout(t *testing.T) {
	data := resilientTestData(64 << 10)
	p := lzss.HWSpeedParams()
	// First attempt of every segment stalls until its deadline.
	hook := func(ctx context.Context, seg, attempt int) error {
		if attempt == 0 {
			<-ctx.Done()
			return fmt.Errorf("stalled: %w", ctx.Err())
		}
		return nil
	}
	start := time.Now()
	out, rep, err := ParallelCompress(context.Background(), data, p,
		ParallelOpts{Segment: 32 << 10, Workers: 2, Resilient: true, SegmentTimeout: 20 * time.Millisecond, SegmentHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("stalled attempts were not bounded by SegmentTimeout")
	}
	if rep.Retries < rep.Segments {
		t.Fatalf("stalls did not force retries: %+v", rep)
	}
	dec, err := ZlibDecompress(out)
	if err != nil || !bytes.Equal(dec, data) {
		t.Fatalf("round trip after stalls: %v", err)
	}
}

func TestResilientContextCancel(t *testing.T) {
	data := resilientTestData(256 << 10)
	p := lzss.HWSpeedParams()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := ParallelCompress(ctx, data, p, ParallelOpts{Segment: 16 << 10, Resilient: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v", err)
	}
}

func TestResilientCarryRoundTrip(t *testing.T) {
	// Highly repetitive data exercises cross-segment references.
	data := bytes.Repeat(resilientTestData(1000), 100)
	p := lzss.HWSpeedParams()
	hook := func(ctx context.Context, seg, attempt int) error {
		if attempt == 0 && seg%2 == 0 {
			panic("injected")
		}
		return nil
	}
	out, rep, err := ParallelCompress(context.Background(), data, p,
		ParallelOpts{Segment: 16 << 10, Workers: 4, Carry: true, Resilient: true, SegmentHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PanicsRecovered == 0 {
		t.Fatalf("no panics recovered: %+v", rep)
	}
	dec, err := ZlibDecompress(out)
	if err != nil || !bytes.Equal(dec, data) {
		t.Fatalf("carry round trip under panics: %v", err)
	}
}

func TestResilientEmptyInput(t *testing.T) {
	out, rep, err := ParallelCompress(context.Background(), nil, lzss.HWSpeedParams(), ParallelOpts{Resilient: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Segments != 1 {
		t.Fatalf("empty input segments = %d", rep.Segments)
	}
	dec, err := ZlibDecompress(out)
	if err != nil || len(dec) != 0 {
		t.Fatalf("empty round trip: %v", err)
	}
}

func TestStoredSegmentFraming(t *testing.T) {
	// Bigger than one stored block, verified via the normal inflater.
	chunk := resilientTestData(100_000)
	body := storedSegment(chunk, true)
	dec, err := Inflate(body.B)
	if err != nil || !bytes.Equal(dec, chunk) {
		t.Fatalf("stored segment final: %v", err)
	}
	// Non-final body needs the closing empty stored block.
	body = storedSegment(chunk, false)
	dec, err = Inflate(append(append([]byte(nil), body.B...), finalEmptyStored...))
	if err != nil || !bytes.Equal(dec, chunk) {
		t.Fatalf("stored segment non-final: %v", err)
	}
	// Empty chunk is just the framing block.
	if dec, err = Inflate(storedSegment(nil, true).B); err != nil || len(dec) != 0 {
		t.Fatalf("empty stored segment: %v", err)
	}
}
