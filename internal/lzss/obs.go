package lzss

import (
	"sync/atomic"

	"lzssfpga/internal/obs"
	"lzssfpga/internal/token"
)

// Observability: the matcher histograms locally (fixed arrays in
// Matcher, under every front end, plain increments on the hot path) and
// publishes counter deltas plus bucket batches into the registry at
// block/segment granularity via FlushObs — so an enabled registry adds
// a handful of atomic adds per *segment*, not per byte. With no
// registry wired in (the default), the sink pointer is nil and flushing
// is a single atomic load.

// Histogram bucket bounds. matchLenBounds spans the legal emitted match
// lengths (MinMatch..MaxMatch, 3..258); chainDepthBounds spans
// candidates-walked-per-probe up to LevelMax's 4096 chain limit.
var (
	matchLenBounds   = []int64{3, 4, 5, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 258}
	chainDepthBounds = []int64{0, 1, 2, 3, 4, 6, 8, 16, 32, 64, 256, 4096}
)

const (
	numMatchLenBuckets   = 16 // len(matchLenBounds) + 1 (+Inf, unreachable)
	numChainDepthBuckets = 13 // len(chainDepthBounds) + 1
)

// Every probe and every match picks a bucket, so the buckets come from
// tables indexed by the value: every legal match length, and chain
// depths up to the last bound below LevelMax's 4096 (greedy speed
// levels walk at most a few candidates). Deeper walks resume the scan
// from the table's last bucket.
var (
	matchLenTab   [token.MaxMatch + 1]uint8
	chainDepthTab [257]uint8
)

func init() {
	fillBuckets(matchLenTab[:], matchLenBounds)
	fillBuckets(chainDepthTab[:], chainDepthBounds)
}

// fillBuckets sets tab[n] to n's bucket.
func fillBuckets(tab []uint8, bounds []int64) {
	i := 0
	for n := range tab {
		i = scanBuckets(bounds, i, int64(n))
		tab[n] = uint8(i)
	}
}

// scanBuckets returns n's bucket — the index of the first bound at or
// above n, or len(bounds) past the last — scanning from bucket i, which
// must not be above n's.
func scanBuckets(bounds []int64, i int, n int64) int {
	for i < len(bounds) && n > bounds[i] {
		i++
	}
	return i
}

// matchLenBucket is the histogram bucket of match length n >= 0.
func matchLenBucket(n int) int {
	if uint(n) < uint(len(matchLenTab)) {
		return int(matchLenTab[n])
	}
	return scanBuckets(matchLenBounds, int(matchLenTab[len(matchLenTab)-1]), int64(n))
}

// chainDepthBucket is the histogram bucket of chain depth n >= 0.
func chainDepthBucket(n int64) int {
	if uint64(n) < uint64(len(chainDepthTab)) {
		return int(chainDepthTab[n])
	}
	return scanBuckets(chainDepthBounds, int(chainDepthTab[len(chainDepthTab)-1]), n)
}

// lzssSink holds the registry handles for the lzss_* metric family.
type lzssSink struct {
	inputBytes   *obs.Counter
	literals     *obs.Counter
	matches      *obs.Counter
	matchedBytes *obs.Counter
	hashComputes *obs.Counter
	headReads    *obs.Counter
	chainSteps   *obs.Counter
	compareBytes *obs.Counter
	inserts      *obs.Counter
	lazyEvals    *obs.Counter
	probeBatches *obs.Counter
	matchLen     *obs.Histogram
	chainDepth   *obs.Histogram
}

var lzssObs atomic.Pointer[lzssSink]

// SetObservability wires the package's lzss_* metrics into reg
// (nil disables). Safe to call concurrently with running compressors;
// in-flight runs flush to whichever sink is current at their next
// block boundary.
func SetObservability(reg *obs.Registry) {
	if reg == nil {
		lzssObs.Store(nil)
		return
	}
	lzssObs.Store(&lzssSink{
		inputBytes:   reg.Counter(obs.LZSSInputBytes),
		literals:     reg.Counter(obs.LZSSLiterals),
		matches:      reg.Counter(obs.LZSSMatches),
		matchedBytes: reg.Counter(obs.LZSSMatchedBytes),
		hashComputes: reg.Counter(obs.LZSSHashComputes),
		headReads:    reg.Counter(obs.LZSSHeadReads),
		chainSteps:   reg.Counter(obs.LZSSChainSteps),
		compareBytes: reg.Counter(obs.LZSSCompareBytes),
		inserts:      reg.Counter(obs.LZSSInserts),
		lazyEvals:    reg.Counter(obs.LZSSLazyEvals),
		probeBatches: reg.Counter(obs.LZSSProbeBatches),
		matchLen:     reg.Histogram(obs.LZSSMatchLen, matchLenBounds),
		chainDepth:   reg.Histogram(obs.LZSSChainDepth, chainDepthBounds),
	})
}

// publish adds a Stats delta to the registry counters.
func (k *lzssSink) publish(d *Stats) {
	k.inputBytes.Add(d.InputBytes)
	k.literals.Add(d.Literals)
	k.matches.Add(d.Matches)
	k.matchedBytes.Add(d.MatchedBytes)
	k.hashComputes.Add(d.HashComputes)
	k.headReads.Add(d.HeadReads)
	k.chainSteps.Add(d.ChainSteps)
	k.compareBytes.Add(d.CompareBytes)
	k.inserts.Add(d.Inserts)
	k.lazyEvals.Add(d.LazyEvals)
	k.probeBatches.Add(d.ProbeBatches)
}

// statsDelta returns cur - prev, field by field.
func statsDelta(cur, prev Stats) Stats {
	return Stats{
		InputBytes:   cur.InputBytes - prev.InputBytes,
		Literals:     cur.Literals - prev.Literals,
		Matches:      cur.Matches - prev.Matches,
		MatchedBytes: cur.MatchedBytes - prev.MatchedBytes,
		HashComputes: cur.HashComputes - prev.HashComputes,
		HeadReads:    cur.HeadReads - prev.HeadReads,
		ChainSteps:   cur.ChainSteps - prev.ChainSteps,
		CompareBytes: cur.CompareBytes - prev.CompareBytes,
		Inserts:      cur.Inserts - prev.Inserts,
		LazyEvals:    cur.LazyEvals - prev.LazyEvals,
		ProbeBatches: cur.ProbeBatches - prev.ProbeBatches,
	}
}
