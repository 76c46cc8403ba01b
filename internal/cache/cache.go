// Package cache implements the engine-level content-addressed result
// cache of ROADMAP item 2: a million users fetching the same hot object
// should cost one compression. Results are keyed by (payload sha256,
// engine-parameter fingerprint, dictionary ID), held in a sharded LRU
// bounded by a byte budget (values held, not entry count), and deduped
// in flight — N concurrent identical requests run one compression and
// share the cached bytes (singleflight).
//
// Correctness is by construction: a cached value is the exact byte
// stream a previous request returned, addressed by the full key, so a
// hit can never serve a stream the same request would not have
// produced. A caller can additionally have every hit re-validated
// (paranoid mode: it supplies the check, typically a re-inflate against
// the request payload it holds); a failed check drops the entry, counts
// a verify failure, and recomputes.
package cache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"sync"
	"sync/atomic"
)

// Key addresses one cached compression result. Sum is the sha256 of
// the uncompressed request payload; Params fingerprints every
// compression-relevant engine setting (two servers with different
// levels never share entries); Dict is the negotiated preset
// dictionary ID ("" when none). The struct is comparable and is used
// directly as a map key.
type Key struct {
	Sum    [32]byte
	Params uint64
	Dict   string
}

// KeyFor builds the cache key for one request payload.
func KeyFor(payload []byte, params uint64, dict string) Key {
	return Key{Sum: sha256.Sum256(payload), Params: params, Dict: dict}
}

// Config sizes a Cache. The zero value selects 64 MiB across 16
// shards.
type Config struct {
	// MaxBytes is the cache-wide budget for held values (0 selects
	// 64 MiB). Entries are evicted least-recently-used per shard when
	// the budget is exceeded; a single value larger than one shard's
	// slice of the budget is served but never stored.
	MaxBytes int64
	// Shards is the lock-striping width (0 selects 16).
	Shards int
}

func (c Config) withDefaults() Config {
	if c.MaxBytes <= 0 {
		c.MaxBytes = 64 << 20
	}
	if c.Shards <= 0 {
		c.Shards = 16
	}
	return c
}

// Stats is a point-in-time snapshot of a Cache's counters.
type Stats struct {
	Hits           int64 // requests served from a stored entry
	Misses         int64 // requests that ran the compute function
	Coalesced      int64 // requests that shared an in-flight compute
	Evictions      int64 // entries dropped by the byte budget
	VerifyFailures int64 // paranoid-mode hits whose check failed
	Bytes          int64 // value bytes currently held
	Entries        int64 // entries currently held
}

// entry is one stored result on a shard's LRU list.
type entry struct {
	key Key
	val []byte
}

// flight is one in-progress compute that later arrivals for the same
// key attach to. val/err are written before done is closed and never
// after, so waiters read them without a lock.
type flight struct {
	done chan struct{}
	val  []byte
	err  error
}

// shard is one lock stripe: its own LRU list, entry index, byte
// ledger, and in-flight compute map.
type shard struct {
	mu      sync.Mutex
	lru     list.List // front = most recent; values are *entry
	index   map[Key]*list.Element
	bytes   int64
	flights map[Key]*flight
}

// Cache is the content-addressed result cache. Values returned from
// GetOrCompute are shared read-only slices — callers must not mutate
// them.
type Cache struct {
	shards      []*shard
	maxPerShard int64

	hits           atomic.Int64
	misses         atomic.Int64
	coalesced      atomic.Int64
	evictions      atomic.Int64
	verifyFailures atomic.Int64
	bytes          atomic.Int64
	entries        atomic.Int64
}

// New builds a Cache from cfg (zero value usable).
func New(cfg Config) *Cache {
	cfg = cfg.withDefaults()
	c := &Cache{shards: make([]*shard, cfg.Shards)}
	c.maxPerShard = cfg.MaxBytes / int64(cfg.Shards)
	if c.maxPerShard < 1 {
		c.maxPerShard = 1
	}
	for i := range c.shards {
		c.shards[i] = &shard{index: make(map[Key]*list.Element), flights: make(map[Key]*flight)}
	}
	return c
}

func (c *Cache) shardOf(k Key) *shard {
	h := uint64(k.Sum[0]) | uint64(k.Sum[1])<<8 | uint64(k.Sum[2])<<16 | uint64(k.Sum[3])<<24 |
		uint64(k.Sum[4])<<32 | uint64(k.Sum[5])<<40 | uint64(k.Sum[6])<<48 | uint64(k.Sum[7])<<56
	h ^= k.Params * 0x9e3779b97f4a7c15
	for i := 0; i < len(k.Dict); i++ {
		h = h*131 + uint64(k.Dict[i])
	}
	return c.shards[h%uint64(len(c.shards))]
}

// GetOrCompute returns the cached result for key, computing it at most
// once across all concurrent callers. compute runs outside the shard
// lock; its result is stored on success (compute errors are returned
// but never cached, so the next request retries). A non-nil verify is
// paranoid mode: it is consulted on every hit, and a non-nil error
// drops the entry, counts a verify failure, and falls through to a
// fresh compute. The returned slice is shared and read-only. The bool
// reports whether the bytes came from the cache (stored entry or a
// coalesced in-flight compute) rather than this caller's own compute
// run.
//
// A caller whose ctx expires while waiting on another caller's compute
// returns ctx.Err(); the compute itself continues and its result is
// cached for everyone else.
func (c *Cache) GetOrCompute(ctx context.Context, key Key, compute func() ([]byte, error), verify func([]byte) error) ([]byte, bool, error) {
	sh := c.shardOf(key)
	for {
		sh.mu.Lock()
		if el, ok := sh.index[key]; ok {
			e := el.Value.(*entry)
			if verify != nil {
				// Verify outside the lock: re-inflating a large stream
				// under the shard mutex would serialize the stripe.
				val := e.val
				sh.mu.Unlock()
				if err := verify(val); err == nil {
					c.hits.Add(1)
					if k := cacheObs.Load(); k != nil {
						k.hits.Inc()
					}
					// Bump recency best-effort; the entry may already be
					// gone, which is fine.
					sh.mu.Lock()
					if el, ok := sh.index[key]; ok {
						sh.lru.MoveToFront(el)
					}
					sh.mu.Unlock()
					return val, true, nil
				}
				c.verifyFailures.Add(1)
				if k := cacheObs.Load(); k != nil {
					k.verifyFailures.Inc()
				}
				sh.mu.Lock()
				if el, ok := sh.index[key]; ok {
					sh.removeLocked(c, el)
				}
				sh.mu.Unlock()
				continue // recompute (or attach to a flight) from the top
			}
			sh.lru.MoveToFront(el)
			sh.mu.Unlock()
			c.hits.Add(1)
			if k := cacheObs.Load(); k != nil {
				k.hits.Inc()
			}
			return e.val, true, nil
		}
		if f, ok := sh.flights[key]; ok {
			sh.mu.Unlock()
			c.coalesced.Add(1)
			if k := cacheObs.Load(); k != nil {
				k.coalesced.Inc()
			}
			select {
			case <-f.done:
				return f.val, true, f.err
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		f := &flight{done: make(chan struct{})}
		sh.flights[key] = f
		sh.mu.Unlock()

		c.misses.Add(1)
		if k := cacheObs.Load(); k != nil {
			k.misses.Inc()
		}
		val, err := compute()
		f.val, f.err = val, err

		sh.mu.Lock()
		delete(sh.flights, key)
		if err == nil {
			sh.insertLocked(c, key, val)
		}
		sh.mu.Unlock()
		close(f.done)
		return val, false, err
	}
}

// Get returns the stored value for key without computing on miss.
func (c *Cache) Get(key Key) ([]byte, bool) {
	sh := c.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.index[key]
	if !ok {
		return nil, false
	}
	sh.lru.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// insertLocked stores val under key and evicts from the cold end until
// the shard is back under budget. Values too large for the shard's
// whole budget are not stored (they would evict everything and then be
// evicted themselves on the next insert).
func (sh *shard) insertLocked(c *Cache, key Key, val []byte) {
	if int64(len(val)) > c.maxPerShard {
		return
	}
	if el, ok := sh.index[key]; ok {
		// A verify-failure recompute (or a lost race) can re-insert an
		// existing key: replace the stored bytes.
		sh.removeLocked(c, el)
	}
	e := &entry{key: key, val: val}
	sh.index[key] = sh.lru.PushFront(e)
	sh.bytes += int64(len(val))
	c.bytes.Add(int64(len(val)))
	c.entries.Add(1)
	liveBytes.Add(int64(len(val)))
	liveEntries.Add(1)
	for sh.bytes > c.maxPerShard {
		back := sh.lru.Back()
		if back == nil {
			break
		}
		sh.removeLocked(c, back)
		c.evictions.Add(1)
		if k := cacheObs.Load(); k != nil {
			k.evictions.Inc()
		}
	}
}

func (sh *shard) removeLocked(c *Cache, el *list.Element) {
	e := el.Value.(*entry)
	sh.lru.Remove(el)
	delete(sh.index, e.key)
	sh.bytes -= int64(len(e.val))
	c.bytes.Add(-int64(len(e.val)))
	c.entries.Add(-1)
	liveBytes.Add(-int64(len(e.val)))
	liveEntries.Add(-1)
}

// Stats snapshots the cache's counters and occupancy.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		Coalesced:      c.coalesced.Load(),
		Evictions:      c.evictions.Load(),
		VerifyFailures: c.verifyFailures.Load(),
		Bytes:          c.bytes.Load(),
		Entries:        c.entries.Load(),
	}
}
