package lzss

import (
	"math/bits"

	"lzssfpga/internal/token"
)

// tooFar is zlib's lazy-matching heuristic: a bare MinMatch-length match
// further back than this costs more bits than three literals on average,
// so the slow path discards it.
const tooFar = 4096

// Compress runs the LZSS stage over src and returns the command stream.
// Greedy (deflate_fast-style) matching is used unless p.Lazy is set.
// The returned Stats are the operation counts of the run.
func Compress(src []byte, p Params) ([]token.Command, *Stats, error) {
	cmds, stats, err := CompressAppend(nil, src, p)
	return cmds, stats, err
}

// CompressAppend is Compress appending into dst — the allocation-free
// form for callers that recycle command buffers across blocks. dst may
// be nil; the (possibly reallocated) slice is returned.
func CompressAppend(dst []token.Command, src []byte, p Params) ([]token.Command, *Stats, error) {
	stats := &Stats{InputBytes: int64(len(src))}
	m, err := NewMatcher(src, p, stats)
	if err != nil {
		return dst, nil, err
	}
	dst = compressBlock(m, src, reserve(dst, len(src)))
	m.FlushObs()
	return dst, stats, nil
}

// CompressReuse compresses src appending into dst, reusing m's hash
// tables (the matcher is Reset to src first, and holds no reference to
// src on return). The matching policy comes from m's Params; m's Stats
// keep accumulating across calls. This is the hot path of the pooled
// parallel pipeline: zero allocations when dst has room for half a
// command per byte of src (see reserve).
func CompressReuse(dst []token.Command, m *Matcher, src []byte) []token.Command {
	m.Reset(src)
	m.stats.InputBytes += int64(len(src))
	dst = compressBlock(m, src, reserve(dst, len(src)))
	m.release()
	m.FlushObs()
	return dst
}

// compressBlock runs m's matching policy over the whole of src.
func compressBlock(m *Matcher, src []byte, dst []token.Command) []token.Command {
	switch {
	case m.p.SA && m.p.Lazy:
		return compressSAOptimal(m, src, dst)
	case m.p.Lazy:
		return compressLazy(m, src, dst)
	default:
		dst, _, _ = compressGreedy(m, src, dst, 0, len(src), 0)
		return dst
	}
}

// CompressTail compresses buf[origin:] appending into dst, with
// buf[:origin] serving as preset history: the chains are warmed over
// the prefix so early matches can reach back into it (distances may
// exceed the number of produced bytes, up to Window-1 beyond). The
// matcher is Reset to buf, holds no reference to it on return, and must
// have been built with the desired Params; matching over the tail is
// always greedy. This is the
// dictionary carry-over path of the parallel compressor — because
// predecessor bytes are adjacent in the input, no dictionary copy is
// needed — and the body of CompressWithDict.
func CompressTail(dst []token.Command, m *Matcher, buf []byte, origin int) []token.Command {
	m.Reset(buf)
	m.stats.InputBytes += int64(len(buf) - origin)
	m.InsertRange(0, m.insertEnd(origin))
	dst, _, _ = compressGreedy(m, buf, reserve(dst, len(buf)-origin), origin, len(buf), 0)
	m.release()
	m.FlushObs()
	return dst
}

// reserve returns dst with room to append the commands of n input bytes:
// half a command per byte, the one command density every entry point
// reserves for. Under HWSpeedParams wiki text makes about 0.30 commands
// per byte, CAN logs 0.42 and JSONish records 0.17, so none regrows;
// append's regrowth allocated 3-6x the final command bytes, and a cold
// process's peak RSS followed how far that outran the collector.
// Incompressible input, one command per byte, still regrows unless the
// skip stride reserves for it (compressGreedy).
//
// make, not slices.Grow: memory fresh from the operating system is not
// touched until written, so in a cold process the unused tail never
// becomes resident; slices.Grow clears it.
func reserve(dst []token.Command, n int) []token.Command {
	if need := n/2 + 16; cap(dst)-len(dst) < need {
		grown := make([]token.Command, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	return dst
}

func emitLit(cmds []token.Command, m *Matcher, b byte) []token.Command {
	m.stats.Literals++
	return append(cmds, token.Lit(b))
}

func emitCopy(cmds []token.Command, m *Matcher, dist, length int) []token.Command {
	m.stats.Matches++
	m.stats.MatchedBytes += int64(length)
	m.mlHist[matchLenBucket(length)]++
	return append(cmds, token.Copy(dist, length))
}

// maxSkipStride caps the match-skip stride: a compressible region
// starting after a long incompressible run costs at most this many
// positions of missed matches before the stride resets.
const maxSkipStride = 128

// compressGreedy is the matching policy the hardware implements: take
// the longest match at the current position or emit a literal. It is
// the one greedy loop behind every front end — whole blocks, the
// dictionary tail and the sliding stream.
//
// It decides every position in [pos, stop) and returns the commands,
// the next undecided position and the count of consecutive failed
// probes since the last match. A decision may run past stop (a match,
// or a skipped literal run) but never past len(src), and it reads fewer
// than streamLookahead bytes past the position it decides. So a caller
// that feeds its input in pieces — StreamCompressor stops each piece
// streamLookahead short of the buffered end and carries the returned
// position and miss count into the next call — makes exactly the
// decisions of one whole-buffer run. Positions before pos are assumed
// inserted history.
//
// Two generation-two features ride on the same loop. With SkipTrigger
// set, after R consecutive failed probes the loop advances
// 1 + R>>SkipTrigger positions per literal run (capped at
// maxSkipStride), neither probing nor inserting the stepped-over
// positions; on incompressible input the dead chain walks turn into a
// near-memcpy literal sweep, and one found match resets the stride to 1.
// With Hash4 set, probes take the 4-byte-head path (findMatch4, with its
// batched prefetch). With both off the stride is always 1 and the loop
// is bit-for-bit the hardware's policy. The suffix-array tier's greedy
// level probes its index (saFind) and inserts nothing. A short match's
// positions go into the chains through InsertRange on every path.
//
// The loop runs over locals, the way the hardware keeps its match state
// in registers: the tables, the policy fields and every Stats counter
// it charges, added to the matcher's Stats once on return. For the
// 3-byte hash the probe is written out in the loop — hash, head/prev
// update and the chain walk — with the same policy and charges as
// FindMatch, which stays the lazy loop's probe and the exported single
// probe. Calling FindMatch from here instead made serial Compress 5.7%
// slower (bulk compress_mb_s, 10 of 10 alternating pairs).
func compressGreedy(m *Matcher, src []byte, cmds []token.Command, pos, stop, miss int) ([]token.Command, int, int) {
	hashable := m.insertEnd(len(src)) // positions below this can be probed/inserted
	trigger := m.p.SkipTrigger
	hash4, suffixArray := m.p.Hash4, m.sam != nil
	head, prev, wmask := m.head, m.prev, m.mask
	zshift, zmask, hash := m.zshift, m.zmask, m.p.Hash
	far := m.p.Window - 1
	nice, maxChain, insertLimit := m.p.Nice, m.p.MaxChain, m.p.InsertLimit
	mlHist, cdHist := &m.mlHist, &m.cdHist
	// A probe hashes, reads a head and inserts its own position;
	// InsertRange charges a short match's inserts itself.
	var lits, matches, matched, probes, steps, compared int64
	for pos < stop {
		if pos >= hashable {
			// Too little left to hash: a literal.
			lits++
			cmds = append(cmds, token.Lit(src[pos]))
			pos++
			continue
		}
		length, dist := 0, 0
		switch {
		case hash4:
			length, dist = m.findMatch4(pos)
		case suffixArray:
			length, dist = m.saFind(pos)
		default:
			var h uint32
			if zshift != 0 {
				h = zlibHash3(src, pos, zshift, zmask)
			} else {
				h = hash(src[pos], src[pos+1], src[pos+2])
			}
			cand := head[h]
			prev[int32(pos)&wmask] = cand
			head[h] = int32(pos)
			maxLen := min(len(src)-pos, token.MaxMatch)
			// Oldest admissible candidate; an empty link (-1) is below it.
			minPos := max(pos-far, 0)
			depth := 0
			for depth < maxChain && int(cand) >= minPos {
				depth++
				c := int(cand)
				n := matchLen(src, c, pos, maxLen)
				compared += int64(n)
				if n < maxLen {
					compared++ // the mismatching byte was also read
				}
				if n > length {
					length, dist = n, pos-c
					if length >= nice || length == maxLen {
						break
					}
				}
				cand = prev[cand&wmask]
			}
			probes++
			steps += int64(depth)
			cdHist[chainDepthBucket(int64(depth))]++
			if length < token.MinMatch {
				length = 0
			}
		}
		if length > 0 {
			miss = 0
			matches++
			matched += int64(length)
			mlHist[matchLenBucket(length)]++
			cmds = append(cmds, token.Copy(dist, length))
			// Full hash-table update only for short matches — the
			// hardware decides this on match length (paper §IV); long
			// matches skip insertion to keep the 1 cycle/byte update
			// cost bounded.
			end := pos + length
			if length <= insertLimit {
				m.InsertRange(pos+1, min(end, hashable)) // a no-op for the suffix array
			}
			pos = end
			continue
		}
		step := 1
		if trigger != 0 {
			step = min(1+miss>>trigger, maxSkipStride, len(src)-pos)
			miss++
		}
		if step == 1 {
			lits++
			cmds = append(cmds, token.Lit(src[pos]))
			pos++
			continue
		}
		if cap(cmds)-len(cmds) < step {
			// An open stride means the input is running incompressible,
			// where the usual half-a-command-per-byte reservation ends
			// up ~2x short and append's geometric growth memmoves
			// the stream repeatedly. Reserve the worst case (one literal
			// per remaining byte) in a single copy instead. A stride of
			// one keeps append's growth, so compressible input never
			// over-reserves.
			grown := make([]token.Command, len(cmds), len(cmds)+(len(src)-pos)+16)
			copy(grown, cmds)
			cmds = grown
		}
		lits += int64(step)
		// Capacity is guaranteed above; indexed stores skip append's
		// per-element bookkeeping across the run.
		base := len(cmds)
		cmds = cmds[:base+step]
		for i := 0; i < step; i++ {
			cmds[base+i] = token.Lit(src[pos+i])
		}
		pos += step
	}
	s := m.stats
	s.Literals += lits
	s.Matches += matches
	s.MatchedBytes += matched
	s.HashComputes += probes
	s.HeadReads += probes
	s.ChainSteps += steps
	s.CompareBytes += compared
	s.Inserts += probes
	return cmds, pos, miss
}

// compressLazy is zlib's deflate_slow policy: hold each match back one
// byte to see whether a longer one starts at the next position.
func compressLazy(m *Matcher, src []byte, cmds []token.Command) []token.Command {
	pos := 0
	havePrev := false
	prevLen, prevDist := 0, 0
	for pos < len(src) {
		curLen, curDist := 0, 0
		if len(src)-pos >= token.MinMatch {
			if prevLen < m.p.MaxLazy {
				m.stats.LazyEvals++
				curLen, curDist = m.FindMatch(pos)
				// Discard marginal matches that are far away: the
				// encoded distance would cost more than the literals.
				if curLen == token.MinMatch && curDist > tooFar {
					curLen, curDist = 0, 0
				}
			} else {
				// Previous match is already "long enough"; keep the
				// chains warm but skip the search.
				m.Insert(pos)
			}
		}
		if havePrev && prevLen >= token.MinMatch && curLen <= prevLen {
			// The deferred match starting at pos-1 wins.
			cmds = emitCopy(cmds, m, prevDist, prevLen)
			end := pos - 1 + prevLen
			if prevLen <= m.p.InsertLimit {
				to := end
				if limit := len(src) - token.MinMatch + 1; to > limit {
					to = limit
				}
				m.InsertRange(pos+1, to)
			}
			pos = end
			havePrev, prevLen, prevDist = false, 0, 0
			continue
		}
		if havePrev {
			cmds = emitLit(cmds, m, src[pos-1])
		}
		havePrev, prevLen, prevDist = true, curLen, curDist
		pos++
	}
	if havePrev {
		// The loop-exit argument guarantees the pending byte has no
		// viable match (a deferred match is always resolved in-loop).
		cmds = emitLit(cmds, m, src[len(src)-1])
	}
	return cmds
}

// ---- Suffix-array tier: cost-model optimal parse ----

// litFixedBits is the fixed-Huffman cost of a literal (RFC 1951 §3.2.6:
// 8 bits for 0-143, 9 for 144-255).
func litFixedBits(b byte) int32 {
	if b < 144 {
		return 8
	}
	return 9
}

// copyFixedBits is the fixed-Huffman cost of a (length, distance)
// command: length-code bits (7 for codes 257-279, 8 for 280-285) plus
// length extra bits, plus the 5-bit distance code and its extra bits.
// The final stream is usually dynamic-Huffman, so this is a proxy cost —
// but a monotone, distance-aware one, which is all the parse needs.
func copyFixedBits(length int, dist int32) int32 {
	var c int32
	switch {
	case length <= 10:
		c = 7
	case length <= 18:
		c = 7 + 1
	case length <= 34:
		c = 7 + 2
	case length <= 66:
		c = 7 + 3
	case length <= 114:
		c = 7 + 4
	case length <= 130:
		c = 8 + 4
	case length <= 257:
		c = 8 + 5
	default: // 258, code 285
		c = 8
	}
	c += 5 // fixed distance code
	if dist > 4 {
		// Distance slots 4.. carry floor(log2(d-1))-1 extra bits.
		c += int32(bits.Len32(uint32(dist-1)) - 2)
	}
	return c
}

// compressSAOptimal is the suffix-array tier's parse: a backward
// shortest-path over the exact longest-match table (ROADMAP item 3's
// "optimal parse"). Three passes:
//
//  1. forward, query the longest match (and its distance) at every
//     position — the monotone probe order the sliding index needs;
//  2. backward DP: cost[i] = min bits to encode src[i:] under the
//     fixed-Huffman cost model, choosing a literal or any length
//     3..L(i) of the match at i (every prefix of a match is a match);
//  3. forward replay of the chosen commands.
//
// Unlike greedy/lazy, this weighs a long match at i against literals
// or shorter matches that set up an even longer match inside it, and
// prices distance extra bits instead of using the tooFar cliff.
func compressSAOptimal(m *Matcher, src []byte, cmds []token.Command) []token.Command {
	n := len(src)
	if n == 0 {
		return cmds
	}
	mLen := growInt32(&m.saMLen, n)
	mDist := growInt32(&m.saMDist, n)
	cost := growInt32(&m.saCost, n+1)
	pick := growInt32(&m.saPick, n)

	for pos := 0; pos <= n-token.MinMatch; pos++ {
		m.stats.LazyEvals++
		l, d := m.saFind(pos)
		mLen[pos], mDist[pos] = int32(l), int32(d)
	}
	for pos := n - token.MinMatch + 1; pos >= 0 && pos < n; pos++ {
		mLen[pos] = 0
	}

	cost[n] = 0
	for i := n - 1; i >= 0; i-- {
		best := cost[i+1] + litFixedBits(src[i])
		sel := int32(0)
		if L := int(mLen[i]); L >= token.MinMatch {
			d := mDist[i]
			for l := token.MinMatch; l <= L; l++ {
				if c := cost[i+l] + copyFixedBits(l, d); c < best {
					best, sel = c, int32(l)
				}
			}
		}
		cost[i], pick[i] = best, sel
	}

	for i := 0; i < n; {
		if l := int(pick[i]); l != 0 {
			cmds = emitCopy(cmds, m, int(mDist[i]), l)
			i += l
		} else {
			cmds = emitLit(cmds, m, src[i])
			i++
		}
	}
	return cmds
}

func growInt32(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	return (*buf)[:n]
}

// Decompress replays a command stream back into the original bytes.
func Decompress(cmds []token.Command) ([]byte, error) {
	return token.Expand(cmds)
}
