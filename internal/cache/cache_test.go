package cache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func mustGet(t *testing.T, c *Cache, key Key, compute func() ([]byte, error)) ([]byte, bool) {
	t.Helper()
	out, hit, err := c.GetOrCompute(context.Background(), key, compute, nil)
	if err != nil {
		t.Fatalf("GetOrCompute: %v", err)
	}
	return out, hit
}

func TestCacheHitMiss(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20, Shards: 4})
	key := KeyFor([]byte("hello"), 1, "")
	var computes atomic.Int64
	compute := func() ([]byte, error) {
		computes.Add(1)
		return []byte("compressed"), nil
	}
	out, hit := mustGet(t, c, key, compute)
	if hit || string(out) != "compressed" {
		t.Fatalf("first call: hit=%v out=%q", hit, out)
	}
	out, hit = mustGet(t, c, key, compute)
	if !hit || string(out) != "compressed" {
		t.Fatalf("second call: hit=%v out=%q", hit, out)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != int64(len("compressed")) {
		t.Fatalf("stats: %+v", st)
	}
}

// Distinct params fingerprints and dictionary IDs address distinct
// entries even for identical payloads — the correctness-by-construction
// invariant.
func TestCacheKeyAddressing(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20, Shards: 4})
	payload := []byte("same payload")
	keys := []Key{
		KeyFor(payload, 1, ""),
		KeyFor(payload, 2, ""),
		KeyFor(payload, 1, "wiki"),
		KeyFor(payload, 1, "can"),
	}
	for i, k := range keys {
		want := []byte(fmt.Sprintf("stream-%d", i))
		out, hit := mustGet(t, c, k, func() ([]byte, error) { return want, nil })
		if hit || !bytes.Equal(out, want) {
			t.Fatalf("key %d: hit=%v out=%q", i, hit, out)
		}
	}
	for i, k := range keys {
		want := []byte(fmt.Sprintf("stream-%d", i))
		out, hit := mustGet(t, c, k, func() ([]byte, error) { return nil, errors.New("must not recompute") })
		if !hit || !bytes.Equal(out, want) {
			t.Fatalf("key %d readback: hit=%v out=%q want %q", i, hit, out, want)
		}
	}
	if st := c.Stats(); st.Entries != int64(len(keys)) {
		t.Fatalf("entries = %d, want %d", st.Entries, len(keys))
	}
}

func TestCacheByteBudgetEviction(t *testing.T) {
	// One shard so the LRU order is fully observable: budget fits four
	// 100-byte values.
	c := New(Config{MaxBytes: 400, Shards: 1})
	val := bytes.Repeat([]byte("x"), 100)
	keyN := func(i int) Key { return KeyFor([]byte{byte(i)}, 0, "") }
	for i := 0; i < 4; i++ {
		mustGet(t, c, keyN(i), func() ([]byte, error) { return val, nil })
	}
	if st := c.Stats(); st.Entries != 4 || st.Bytes != 400 || st.Evictions != 0 {
		t.Fatalf("pre-eviction stats: %+v", st)
	}
	// Touch key 0 so key 1 is now the coldest, then overflow.
	if _, hit := mustGet(t, c, keyN(0), nil); !hit {
		t.Fatal("key 0 should hit")
	}
	mustGet(t, c, keyN(4), func() ([]byte, error) { return val, nil })
	st := c.Stats()
	if st.Entries != 4 || st.Bytes != 400 || st.Evictions != 1 {
		t.Fatalf("post-eviction stats: %+v", st)
	}
	if _, ok := c.Get(keyN(1)); ok {
		t.Fatal("key 1 (coldest) should have been evicted")
	}
	for _, i := range []int{0, 2, 3, 4} {
		if _, ok := c.Get(keyN(i)); !ok {
			t.Fatalf("key %d should survive", i)
		}
	}
}

// A value larger than one shard's budget is served but never stored:
// it would otherwise wipe the shard and immediately be evicted itself.
func TestCacheOversizeBypass(t *testing.T) {
	c := New(Config{MaxBytes: 100, Shards: 1})
	big := bytes.Repeat([]byte("b"), 200)
	key := KeyFor([]byte("big"), 0, "")
	out, hit := mustGet(t, c, key, func() ([]byte, error) { return big, nil })
	if hit || !bytes.Equal(out, big) {
		t.Fatal("oversize value must still be served")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversize value must not be stored: %+v", st)
	}
}

func TestCacheComputeErrorNotCached(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20, Shards: 1})
	key := KeyFor([]byte("flaky"), 0, "")
	boom := errors.New("boom")
	_, _, err := c.GetOrCompute(context.Background(), key, func() ([]byte, error) { return nil, boom }, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("error result was cached: %+v", st)
	}
	out, hit := mustGet(t, c, key, func() ([]byte, error) { return []byte("ok"), nil })
	if hit || string(out) != "ok" {
		t.Fatalf("retry after error: hit=%v out=%q", hit, out)
	}
}

// The stampede battery: 64 goroutines all requesting the same key must
// collapse to exactly one compute via singleflight, and everyone gets
// the same bytes. ci.sh runs this under -race as the cache-stampede
// soak.
func TestCacheStampede(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20, Shards: 8})
	key := KeyFor([]byte("hot object"), 7, "wiki")
	var computes atomic.Int64
	want := []byte("the one true stream")
	const goroutines = 64
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			out, _, err := c.GetOrCompute(context.Background(), key, func() ([]byte, error) {
				computes.Add(1)
				time.Sleep(5 * time.Millisecond) // widen the stampede window
				return want, nil
			}, nil)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(out, want) {
				errs <- fmt.Errorf("got %q", out)
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("stampede ran %d computes, want exactly 1", n)
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
	if st.Coalesced+st.Hits != goroutines-1 {
		t.Fatalf("coalesced(%d)+hits(%d) != %d", st.Coalesced, st.Hits, goroutines-1)
	}
}

// A waiter whose context expires leaves the flight; the compute
// finishes and is cached for everyone else.
func TestCacheWaiterContextCancel(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20, Shards: 1})
	key := KeyFor([]byte("slow"), 0, "")
	release := make(chan struct{})
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.GetOrCompute(context.Background(), key, func() ([]byte, error) { //nolint:errcheck
			close(started)
			<-release
			return []byte("late"), nil
		}, nil)
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.GetOrCompute(ctx, key, func() ([]byte, error) { return nil, errors.New("no") }, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(release)
	<-done
	out, hit := mustGet(t, c, key, nil)
	if !hit || string(out) != "late" {
		t.Fatalf("post-cancel readback: hit=%v out=%q", hit, out)
	}
}

// Paranoid verify mode, selected by passing a verify function: a
// failing check drops the entry, counts a verify failure and recomputes;
// a passing check serves the hit.
func TestCacheVerifyMode(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20, Shards: 1})
	key := KeyFor([]byte("guarded"), 0, "")
	gen := 0
	compute := func() ([]byte, error) {
		gen++
		return []byte(fmt.Sprintf("gen-%d", gen)), nil
	}
	ok := func([]byte) error { return nil }
	bad := func([]byte) error { return errors.New("inflate mismatch") }

	c.GetOrCompute(context.Background(), key, compute, ok) //nolint:errcheck
	out, hit, err := c.GetOrCompute(context.Background(), key, compute, ok)
	if err != nil || !hit || string(out) != "gen-1" {
		t.Fatalf("verified hit: out=%q hit=%v err=%v", out, hit, err)
	}
	out, hit, err = c.GetOrCompute(context.Background(), key, compute, bad)
	if err != nil || hit || string(out) != "gen-2" {
		t.Fatalf("failed verify must recompute: out=%q hit=%v err=%v", out, hit, err)
	}
	if st := c.Stats(); st.VerifyFailures != 1 {
		t.Fatalf("verify failures = %d, want 1", st.VerifyFailures)
	}
	out, hit, err = c.GetOrCompute(context.Background(), key, compute, ok)
	if err != nil || !hit || string(out) != "gen-2" {
		t.Fatalf("recomputed entry should be stored: out=%q hit=%v err=%v", out, hit, err)
	}
}

// Mixed concurrent load across many keys under -race: hammers hit,
// miss, coalesce and eviction paths simultaneously and then checks the
// byte ledger against a full recount.
func TestCacheConcurrentSoak(t *testing.T) {
	c := New(Config{MaxBytes: 8 << 10, Shards: 4})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := KeyFor([]byte{byte(i % 32)}, uint64(i%3), "")
				val := bytes.Repeat([]byte{byte(i)}, 64+(i%5)*100)
				out, _, err := c.GetOrCompute(context.Background(), k, func() ([]byte, error) { return val, nil }, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if len(out) == 0 {
					t.Error("empty result")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	var bytesHeld, entries int64
	for _, sh := range c.shards {
		sh.mu.Lock()
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			bytesHeld += int64(len(el.Value.(*entry).val))
			entries++
		}
		if sh.bytes > c.maxPerShard {
			t.Errorf("shard over budget: %d > %d", sh.bytes, c.maxPerShard)
		}
		sh.mu.Unlock()
	}
	if st.Bytes != bytesHeld || st.Entries != entries {
		t.Fatalf("ledger drift: stats=%+v recount bytes=%d entries=%d", st, bytesHeld, entries)
	}
}
