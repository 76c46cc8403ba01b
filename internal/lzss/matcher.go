package lzss

import (
	"encoding/binary"
	"math/bits"

	"lzssfpga/internal/lzss/sa"
	"lzssfpga/internal/token"
)

// Matcher maintains the ZLib-style head/next hash chains and answers
// longest-match queries. Positions are absolute indices into the source
// block; the chain arrays are window-sized rings, which is exactly the
// aliasing-safe trick the hardware's next table uses (an entry can only
// be trusted while its position is still inside the window, and every
// walk stops at the window boundary before aliasing could be observed).
type Matcher struct {
	p     Params
	src   []byte
	head  []int32 // per hash bucket: most recent position, -1 if none
	prev  []int32 // ring: previous position with same hash
	mask  int32   // window - 1
	stats *Stats
	// Devirtualized default hash: when Params.Validate installed
	// ZlibHash itself, the hot loops compute it inline instead of
	// calling through the HashFunc value. zshift == 0 selects the
	// generic path (the zlib shift is never 0 for HashBits >= 1).
	zshift uint32
	zmask  uint32
	// h4shift is the right shift of the 4-byte multiplicative hash,
	// 32 - HashBits, valid only when p.Hash4 is set.
	h4shift uint32
	// sam is the suffix-array index of the high-ratio tier (Params.SA).
	// When set, the chain tables are not allocated: FindMatch queries
	// the index, and Insert/InsertRange are no-ops (the indexed region
	// already covers every position it spans). The index slides: it
	// covers src[saBase:saBase+len], rebuilt whenever the probe position
	// reaches saNext (see saRebuild) so that the admissible window
	// [pos-Window+1, pos) always lies inside the indexed region and
	// out-of-window suffixes never crowd the rank-neighbour scan.
	sam    *sa.Index
	saBase int // absolute position of the indexed region's start
	saNext int // absolute position at which the index must be rebuilt
	// Optimal-parse scratch (compressSAOptimal), reused across blocks.
	saMLen  []int32 // longest match length at each position
	saMDist []int32 // its distance
	saCost  []int32 // DP: minimal bits to encode src[i:]
	saPick  []int32 // DP: chosen command at i (0 = literal, else length)
	// Local observability state: fixed histogram arrays updated with
	// plain increments on the hot path, and the last-flushed Stats
	// snapshot. FlushObs publishes the deltas into the wired registry
	// (if any) at block/segment granularity and clears the arrays.
	mlHist  [numMatchLenBuckets]int64   // emitted match lengths
	cdHist  [numChainDepthBuckets]int64 // chain candidates walked per probe
	flushed Stats
}

// NewMatcher builds a matcher over src with validated parameters.
// stats may be nil.
func NewMatcher(src []byte, p Params, stats *Stats) (*Matcher, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if stats == nil {
		stats = &Stats{}
	}
	if p.SA {
		return &Matcher{p: p, src: src, stats: stats, sam: sa.New()}, nil
	}
	m := &Matcher{
		p:     p,
		src:   src,
		head:  make([]int32, 1<<p.HashBits),
		prev:  make([]int32, p.Window),
		mask:  int32(p.Window - 1),
		stats: stats,
	}
	if p.defaultHash {
		m.zshift = uint32(p.HashBits+2) / 3
		m.zmask = uint32(1)<<p.HashBits - 1
	}
	m.h4shift = 32 - uint32(p.HashBits)
	for i := range m.head {
		m.head[i] = -1
	}
	return m, nil
}

// hash computes the bucket for the three bytes at pos, devirtualized
// for the default policy.
func (m *Matcher) hash(src []byte, pos int) uint32 {
	if m.zshift != 0 {
		return ((uint32(src[pos])<<m.zshift^uint32(src[pos+1]))<<m.zshift ^ uint32(src[pos+2])) & m.zmask
	}
	return m.p.Hash(src[pos], src[pos+1], src[pos+2])
}

// Stats returns the operation counters.
func (m *Matcher) Stats() *Stats { return m.stats }

// Params returns the matcher's validated parameters.
func (m *Matcher) Params() Params { return m.p }

// Reset rebinds the matcher to a new source block, clearing the hash
// chains but keeping the table allocations — the pooled parallel
// pipeline reuses one matcher per worker across segments. Stats keep
// accumulating across Resets.
//
// prev is deliberately left dirty: a chain walk only ever dereferences
// ring slots that were written after the last Reset (head starts at -1,
// and every reachable candidate wrote its own slot on insertion), so
// stale entries are never observed — the same argument that makes the
// ring safe against intra-block aliasing.
func (m *Matcher) Reset(src []byte) {
	m.src = src
	if m.sam != nil {
		// Lazily rebuilt on the first probe (saFind); Reset just
		// invalidates the previous block's region.
		m.saBase, m.saNext = 0, 0
		return
	}
	for i := range m.head {
		m.head[i] = -1
	}
}

// slide drops the first shift positions of history — ZLib's
// fill_window rotation, the software counterpart of the head-table
// rotation the paper's hardware optimizes. The caller has already
// removed those bytes from the front of its buffer; slide rebinds the
// matcher to it and rebases the chains. shift is a whole multiple of
// the window, so ring slots in prev (indexed by position mod window)
// keep addressing the same strings. Entries pointing before the kept
// region become -1 (chain end), exactly like the hardware zeroing
// entries that point outside the dictionary.
func (m *Matcher) slide(src []byte, shift int) {
	m.src = src
	d := int32(shift)
	for i, v := range m.head {
		m.head[i] = max(v-d, -1)
	}
	for i, v := range m.prev {
		m.prev[i] = max(v-d, -1)
	}
}

func (m *Matcher) hashAt(pos int) uint32 {
	m.stats.HashComputes++
	if m.p.Hash4 {
		return (binary.LittleEndian.Uint32(m.src[pos:]) * hash4Mul) >> m.h4shift
	}
	return m.hash(m.src, pos)
}

// Insert adds the string at pos to the hash chains. pos must leave at
// least minHash bytes of source. A no-op for the suffix-array matcher,
// whose index already covers every position.
func (m *Matcher) Insert(pos int) {
	if m.sam != nil {
		return
	}
	h := m.hashAt(pos)
	m.insertHashed(pos, h)
}

func (m *Matcher) insertHashed(pos int, h uint32) {
	m.stats.Inserts++
	m.prev[int32(pos)&m.mask] = m.head[h]
	m.head[h] = int32(pos)
}

// InsertRange inserts every position in [from, to), batching the stats
// updates into two adds — the bulk form the full-hash-update path after
// a short match uses. With Hash4 the 4-byte head hash is used; callers
// must bound to with insertEnd so every position has a full hash window.
func (m *Matcher) InsertRange(from, to int) {
	if to <= from || m.sam != nil {
		return
	}
	head, prev, src := m.head, m.prev, m.src
	if m.p.Hash4 {
		shift := m.h4shift
		for i := from; i < to; i++ {
			h := (binary.LittleEndian.Uint32(src[i:]) * hash4Mul) >> shift
			prev[int32(i)&m.mask] = head[h]
			head[h] = int32(i)
		}
	} else if m.zshift != 0 {
		shift, hmask := m.zshift, m.zmask
		for i := from; i < to; i++ {
			h := ((uint32(src[i])<<shift^uint32(src[i+1]))<<shift ^ uint32(src[i+2])) & hmask
			prev[int32(i)&m.mask] = head[h]
			head[h] = int32(i)
		}
	} else {
		hash := m.p.Hash
		for i := from; i < to; i++ {
			h := hash(src[i], src[i+1], src[i+2])
			prev[int32(i)&m.mask] = head[h]
			head[h] = int32(i)
		}
	}
	n := int64(to - from)
	m.stats.HashComputes += n
	m.stats.Inserts += n
}

// FindMatch searches for the longest match for the string at pos and
// then inserts pos into the chains (the hardware updates head/next in
// the same cycle the head value is read, so the current string never
// becomes its own candidate). It returns (length, distance); length is
// 0 when no match of at least MinMatch exists.
//
// Policy, shared bit-for-bit with the hardware model:
//   - candidates are visited most-recent-first;
//   - the walk stops after MaxChain candidates, at a nil pointer, or at
//     the first candidate outside the window;
//   - strictly longer matches win, so ties keep the smallest distance;
//   - the search stops early once a match of at least Nice bytes is
//     found;
//   - distance window (== dictionary size) is excluded because the wire
//     format's D field reserves 0 for literals.
//
// Stats are accumulated in locals and flushed once per call; the final
// counter values are identical to charging each operation as it happens.
func (m *Matcher) FindMatch(pos int) (length, distance int) {
	if m.sam != nil {
		return m.saFind(pos)
	}
	src, prev := m.src, m.prev
	var h uint32
	if shift := m.zshift; shift != 0 {
		h = ((uint32(src[pos])<<shift^uint32(src[pos+1]))<<shift ^ uint32(src[pos+2])) & m.zmask
	} else {
		h = m.p.Hash(src[pos], src[pos+1], src[pos+2])
	}
	cand := m.head[h]
	prev[int32(pos)&m.mask] = cand
	m.head[h] = int32(pos)

	maxLen := len(src) - pos
	if maxLen > token.MaxMatch {
		maxLen = token.MaxMatch
	}
	// Oldest admissible candidate: distance <= window-1.
	minPos := pos - (m.p.Window - 1)

	bestLen, bestDist := 0, 0
	chainSteps, compared := int64(0), int64(0)
	nice, maxChain := m.p.Nice, m.p.MaxChain
	for chain := 0; chain < maxChain && cand >= 0 && int(cand) >= minPos; chain++ {
		chainSteps++
		c := int(cand)
		n := matchLen(src, c, pos, maxLen)
		compared += int64(n)
		if n < maxLen {
			compared++ // the mismatching byte was also read
		}
		if n > bestLen {
			bestLen, bestDist = n, pos-c
			if bestLen >= nice || bestLen == maxLen {
				break
			}
		}
		cand = prev[cand&m.mask]
	}
	s := m.stats
	s.HashComputes++
	s.HeadReads++
	s.Inserts++
	s.ChainSteps += chainSteps
	s.CompareBytes += compared
	m.cdHist[chainDepthBucket(chainSteps)]++
	if bestLen < token.MinMatch {
		return 0, 0
	}
	return bestLen, bestDist
}

// saRebuild re-indexes the sliding region around pos: one window of
// history (so every admissible start is indexed), one window of
// lookahead to probe before the next rebuild, and MaxMatch beyond that
// so matches found just before the rebuild boundary can still extend
// fully. Bounding the region to ~2 windows is what makes the bounded
// rank-neighbour scan effective — indexing a whole multi-window block
// would flood each position's suffix-order neighbourhood with
// out-of-window occurrences that burn scan budget without ever being
// admissible. Amortized cost stays O(n log w): one O(w log w) build
// per window of progress.
func (m *Matcher) saRebuild(pos int) {
	base := pos - (m.p.Window - 1)
	if base < 0 {
		base = 0
	}
	m.saBase = base
	m.saNext = pos + m.p.Window
	end := m.saNext + token.MaxMatch
	if end > len(m.src) {
		end = len(m.src)
	}
	m.sam.Reset(m.src[base:end])
}

// saFind answers FindMatch from the suffix-array index: an exact
// longest-previous-occurrence query bounded by MaxChain rank-neighbour
// steps per direction, with Nice keeping its early-exit meaning. The
// query reads the precomputed LCP edges instead of comparing bytes, so
// it charges HeadReads (one rank lookup) and ChainSteps (candidates
// examined) but no HashComputes/CompareBytes/Inserts — indexing cost
// is paid wholesale at saRebuild, not per probe.
func (m *Matcher) saFind(pos int) (length, distance int) {
	if pos >= m.saNext {
		m.saRebuild(pos)
	}
	maxLen := len(m.src) - pos
	if maxLen > token.MaxMatch {
		maxLen = token.MaxMatch
	}
	minPos := pos - (m.p.Window - 1)
	if minPos < 0 {
		minPos = 0
	}
	base := m.saBase
	l, d, steps := m.sam.Find(pos-base, minPos-base, maxLen, token.MinMatch, m.p.Nice, m.p.MaxChain)
	s := m.stats
	s.HeadReads++
	s.ChainSteps += int64(steps)
	m.cdHist[chainDepthBucket(int64(steps))]++
	return l, d
}

// FlushObs publishes the matcher's operation counters and histograms
// accumulated since the previous flush into the registry wired by
// SetObservability; with no registry it is one atomic load. Called at
// block/segment boundaries (CompressAppend, CompressReuse,
// CompressTail, CompressWithDict), never per byte.
func (m *Matcher) FlushObs() {
	k := lzssObs.Load()
	if k == nil {
		return
	}
	cur := *m.stats
	d := statsDelta(cur, m.flushed)
	m.flushed = cur
	k.publish(&d)
	k.matchLen.Merge(m.mlHist[:], d.MatchedBytes)
	k.chainDepth.Merge(m.cdHist[:], d.ChainSteps)
	m.mlHist = [numMatchLenBuckets]int64{}
	m.cdHist = [numChainDepthBuckets]int64{}
}

// ---- Generation-two probe path (Hash4): batched gather + prefetch ----

// hash4Mul is the Fibonacci multiplier (2^32/phi) of the 4-byte head
// hash; the product's top HashBits bits are the bucket.
const hash4Mul = 2654435761

// probeBatchSize is how many chain candidates one gather pass resolves
// before the compare stage runs. The hardware hides its hash-table
// latency by prefetching the next chain link while the comparer works
// on the current candidate (the paper's hash-prefetch FSM); software
// gets the same overlap by walking a small batch of next-pointers
// first — touching each candidate's window as its position is learned,
// so the loads are in flight together — and only then comparing.
const probeBatchSize = 8

// insertEnd is the exclusive upper bound of insertable positions for a
// source of length n: the last position with a full hash window.
func (m *Matcher) insertEnd(n int) int {
	return n - m.p.minHash() + 1
}

// findMatch4 is FindMatch for the 4-byte-head configuration, with the
// batched probe-prefetch stage. The caller guarantees pos+4 <=
// len(src). Policy differences from the generation-one path, both
// implied by the wider hash: matches shorter than 4 are never found,
// and a candidate whose first four bytes differ from the probe's is
// rejected on its prefetched word alone (charged as 4 compare bytes)
// without a matchLen walk.
func (m *Matcher) findMatch4(pos int) (length, distance int) {
	src, prev := m.src, m.prev
	t32 := binary.LittleEndian.Uint32(src[pos:])
	h := (t32 * hash4Mul) >> m.h4shift
	cand := m.head[h]
	prev[int32(pos)&m.mask] = cand
	m.head[h] = int32(pos)

	maxLen := len(src) - pos
	if maxLen > token.MaxMatch {
		maxLen = token.MaxMatch
	}
	minPos := pos - (m.p.Window - 1)

	bestLen, bestDist := 0, 0
	chainSteps, compared, batches := int64(0), int64(0), int64(0)
	nice, budget := m.p.Nice, m.p.MaxChain
	var cpos [probeBatchSize]int32
	var cval [probeBatchSize]uint32
search:
	for budget > 0 && cand >= 0 && int(cand) >= minPos {
		// Gather stage: resolve up to probeBatchSize chain links,
		// loading each candidate's first word as soon as its position is
		// known. The next-pointer walk is the only dependent chain; the
		// window touches overlap with it instead of serializing behind
		// each compare.
		n := 0
		for n < probeBatchSize && budget > 0 && cand >= 0 && int(cand) >= minPos {
			cpos[n] = cand
			cval[n] = binary.LittleEndian.Uint32(src[cand:])
			cand = prev[cand&m.mask]
			budget--
			n++
		}
		batches++
		// Compare stage, most-recent-first over the gathered batch with
		// the generation-one selection rules (strictly longer wins, stop
		// at Nice or maxLen).
		for i := 0; i < n; i++ {
			chainSteps++
			if cval[i] != t32 {
				compared += 4
				continue
			}
			c := int(cpos[i])
			l := matchLen(src, c, pos, maxLen)
			compared += int64(l)
			if l < maxLen {
				compared++ // the mismatching byte was also read
			}
			if l > bestLen {
				bestLen, bestDist = l, pos-c
				if bestLen >= nice || bestLen == maxLen {
					break search
				}
			}
		}
	}
	s := m.stats
	s.HashComputes++
	s.HeadReads++
	s.Inserts++
	s.ChainSteps += chainSteps
	s.CompareBytes += compared
	s.ProbeBatches += batches
	m.cdHist[chainDepthBucket(chainSteps)]++
	if bestLen < 4 {
		return 0, 0
	}
	return bestLen, bestDist
}

// matchLen counts the length of the common prefix of src[a:] and
// src[b:], up to maxLen bytes, comparing eight bytes per probe — the
// software mirror of the paper's comparer-bus widening (Table III,
// optimization B: 8-bit vs 32-bit buses). a < b is required, and the
// caller guarantees b+maxLen <= len(src), so every word load is in
// bounds.
func matchLen(src []byte, a, b, maxLen int) int {
	n := 0
	for n+8 <= maxLen {
		x := binary.LittleEndian.Uint64(src[a+n:]) ^ binary.LittleEndian.Uint64(src[b+n:])
		if x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for n < maxLen && src[a+n] == src[b+n] {
		n++
	}
	return n
}

// compare counts the length of the common prefix of src[a:] and src[b:],
// up to maxLen bytes, charging one CompareBytes unit per byte examined.
// This mirrors the hardware comparer, which always compares from the
// front of the lookahead buffer. a < b is required.
func (m *Matcher) compare(a, b, maxLen int) int {
	n := matchLen(m.src, a, b, maxLen)
	examined := n
	if n < maxLen {
		examined++ // the mismatching byte was also read
	}
	m.stats.CompareBytes += int64(examined)
	return n
}
