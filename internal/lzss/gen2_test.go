package lzss

import (
	"bytes"
	"math/rand"
	"testing"

	"lzssfpga/internal/token"
	"lzssfpga/internal/workload"
)

// These tests pin the generation-two hot path (match-skip stride,
// 4-byte heads, batched probe prefetch) to a naive in-package
// reference: commands AND every stats counter must be identical, the
// same contract fastpath_test.go enforces for generation one. The
// reference mirrors the batch *grouping* (it determines ProbeBatches
// and where a Nice early-exit lands) but compares byte-at-a-time, so
// the wide-compare and gather machinery is what's actually under test.
// It tallies both histograms with the bucket scans (scanBucket).

// naiveGen2 is an independent reimplementation of the generation-two
// greedy policy: skip stride 1 + miss>>SkipTrigger capped at
// maxSkipStride, 4-byte multiplicative heads when Hash4 is set (with
// the first-word quick-reject charged as 4 compare bytes), plain
// 3-byte chains otherwise.
func naiveGen2(src []byte, p Params) (refRun, error) {
	if err := p.Validate(); err != nil {
		return refRun{}, err
	}
	r := refRun{stats: Stats{InputBytes: int64(len(src))}}
	s := &r.stats
	head := make([]int, 1<<p.HashBits)
	for i := range head {
		head[i] = -1
	}
	prev := make([]int, p.Window)
	mask := p.Window - 1
	minHash := token.MinMatch
	if p.Hash4 {
		minHash = 4
	}
	hashable := len(src) - minHash + 1

	le32 := func(pos int) uint32 {
		return uint32(src[pos]) | uint32(src[pos+1])<<8 |
			uint32(src[pos+2])<<16 | uint32(src[pos+3])<<24
	}
	hash := func(pos int) uint32 {
		s.HashComputes++
		if p.Hash4 {
			return (le32(pos) * hash4Mul) >> (32 - uint32(p.HashBits))
		}
		return p.Hash(src[pos], src[pos+1], src[pos+2])
	}
	insertRange := func(from, to int) {
		for i := from; i < to; i++ {
			h := hash(i)
			s.Inserts++
			prev[i&mask] = head[h]
			head[h] = i
		}
	}
	compare := func(a, b, maxLen int) int {
		n := 0
		for n < maxLen && src[a+n] == src[b+n] {
			n++
		}
		examined := n
		if n < maxLen {
			examined++
		}
		s.CompareBytes += int64(examined)
		return n
	}

	// find4 mirrors findMatch4: gather up to probeBatchSize candidates,
	// then evaluate most-recent-first with the quick reject.
	find4 := func(pos int) (int, int) {
		h := hash(pos)
		s.HeadReads++
		cand := head[h]
		s.Inserts++
		prev[pos&mask] = cand
		head[h] = pos
		maxLen := len(src) - pos
		if maxLen > token.MaxMatch {
			maxLen = token.MaxMatch
		}
		minPos := pos - (p.Window - 1)
		bestLen, bestDist := 0, 0
		budget := p.MaxChain
		t32 := le32(pos)
		var batch []int
		depth := int64(0)
	search:
		for budget > 0 && cand >= 0 && cand >= minPos {
			batch = batch[:0]
			for len(batch) < probeBatchSize && budget > 0 && cand >= 0 && cand >= minPos {
				batch = append(batch, cand)
				cand = prev[cand&mask]
				budget--
			}
			s.ProbeBatches++
			for _, c := range batch {
				s.ChainSteps++
				depth++
				if le32(c) != t32 {
					s.CompareBytes += 4
					continue
				}
				n := compare(c, pos, maxLen)
				if n > bestLen {
					bestLen, bestDist = n, pos-c
					if bestLen >= p.Nice || bestLen == maxLen {
						break search
					}
				}
			}
		}
		r.cd[scanBucket(chainDepthBounds, depth)]++
		if bestLen < 4 {
			return 0, 0
		}
		return bestLen, bestDist
	}

	// find3 mirrors the generation-one FindMatch the gen-two loop falls
	// back to when Hash4 is off (skip-only configurations).
	find3 := func(pos int) (int, int) {
		h := hash(pos)
		s.HeadReads++
		cand := head[h]
		s.Inserts++
		prev[pos&mask] = cand
		head[h] = pos
		maxLen := len(src) - pos
		if maxLen > token.MaxMatch {
			maxLen = token.MaxMatch
		}
		minPos := pos - (p.Window - 1)
		bestLen, bestDist := 0, 0
		depth := int64(0)
		for chain := 0; chain < p.MaxChain && cand >= 0 && cand >= minPos; chain++ {
			s.ChainSteps++
			depth++
			n := compare(cand, pos, maxLen)
			if n > bestLen {
				bestLen, bestDist = n, pos-cand
				if bestLen >= p.Nice || bestLen == maxLen {
					break
				}
			}
			cand = prev[cand&mask]
		}
		r.cd[scanBucket(chainDepthBounds, depth)]++
		if bestLen < token.MinMatch {
			return 0, 0
		}
		return bestLen, bestDist
	}

	pos, miss := 0, 0
	for pos < len(src) {
		if pos >= hashable {
			for ; pos < len(src); pos++ {
				s.Literals++
				r.cmds = append(r.cmds, token.Lit(src[pos]))
			}
			break
		}
		var length, dist int
		if p.Hash4 {
			length, dist = find4(pos)
		} else {
			length, dist = find3(pos)
		}
		if length > 0 {
			miss = 0
			s.Matches++
			s.MatchedBytes += int64(length)
			r.ml[scanBucket(matchLenBounds, int64(length))]++
			r.cmds = append(r.cmds, token.Copy(dist, length))
			end := pos + length
			if length <= p.InsertLimit {
				to := end
				if to > hashable {
					to = hashable
				}
				insertRange(pos+1, to)
			}
			pos = end
			continue
		}
		step := 1
		if p.SkipTrigger != 0 {
			if step = 1 + miss>>p.SkipTrigger; step > maxSkipStride {
				step = maxSkipStride
			}
			miss++
		}
		if step > len(src)-pos {
			step = len(src) - pos
		}
		for ; step > 0; step-- {
			s.Literals++
			r.cmds = append(r.cmds, token.Lit(src[pos]))
			pos++
		}
	}
	return r, nil
}

// gen2TestInputs builds the corpus the reference tests run over:
// incompressible, degenerate, and structured data.
func gen2TestInputs(t *testing.T) map[string][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	random := make([]byte, 96*1024)
	rng.Read(random)
	mixed := make([]byte, 64*1024)
	rng.Read(mixed[:len(mixed)/2])
	copy(mixed[len(mixed)/2:], bytes.Repeat([]byte("the quick brown fox "), 1700))
	return map[string][]byte{
		"random": random,
		"zeros":  make([]byte, 64*1024),
		"wiki":   workload.Wiki(96*1024, 3),
		"mixed":  mixed,
		"tiny":   []byte("abc"),
		"empty":  nil,
	}
}

func gen2TestParams() map[string]Params {
	fast := SWFastParams()
	hash4Only := SWFastParams()
	hash4Only.SkipTrigger = 0
	skipOnly := HWSpeedParams()
	skipOnly.SkipTrigger = 5
	return map[string]Params{
		"fast":      fast,      // 4-byte heads + skip (the design point)
		"hash4Only": hash4Only, // 4-byte heads, stride pinned at 1
		"skipOnly":  skipOnly,  // 3-byte heads + skip
	}
}

func TestGen2MatchesNaiveReference(t *testing.T) {
	for pname, p := range gen2TestParams() {
		for iname, input := range gen2TestInputs(t) {
			want, err := naiveGen2(input, p)
			if err != nil {
				t.Fatalf("%s/%s: naive: %v", pname, iname, err)
			}
			got := fastRun(t, input, 0, p)
			if d := got.diff(&want); d != "" {
				t.Fatalf("%s/%s: %s", pname, iname, d)
			}
			out, err := Decompress(got.cmds)
			if err != nil {
				t.Fatalf("%s/%s: decompress: %v", pname, iname, err)
			}
			if !bytes.Equal(out, input) {
				t.Fatalf("%s/%s: round trip mismatch", pname, iname)
			}
		}
	}
}

// TestGen2RoundTripAllLevels is the satellite table: byte-exact round
// trip on random, all-zero and wiki fragments at every preset level
// (both the gen-two greedy levels and the untouched lazy ones).
func TestGen2RoundTripAllLevels(t *testing.T) {
	inputs := gen2TestInputs(t)
	for level := LevelMin; level <= LevelMax; level++ {
		p := LevelParams(level, 4096, 14)
		for iname, input := range inputs {
			cmds, _, err := Compress(input, p)
			if err != nil {
				t.Fatalf("level %d/%s: %v", level, iname, err)
			}
			out, err := Decompress(cmds)
			if err != nil {
				t.Fatalf("level %d/%s: decompress: %v", level, iname, err)
			}
			if !bytes.Equal(out, input) {
				t.Fatalf("level %d/%s: round trip mismatch", level, iname)
			}
		}
	}
}

// TestSkipReducesWorkOnRandom pins the match-skip win where it is
// claimed: on incompressible input the generation-two configuration
// must do strictly less hash-table and chain work than the pre-skip
// matcher at every size, and its per-byte insert rate must fall as the
// stride opens up on longer runs (the geometric part of the heuristic).
func TestSkipReducesWorkOnRandom(t *testing.T) {
	pre := HWSpeedParams()
	fast := SWFastParams()
	var lastInsertRate float64 = 2 // above any possible per-byte rate
	for _, size := range []int{64 * 1024, 256 * 1024, 1024 * 1024} {
		input := workload.Random(size, 11)
		_, preStats, err := Compress(input, pre)
		if err != nil {
			t.Fatal(err)
		}
		_, fastStats, err := Compress(input, fast)
		if err != nil {
			t.Fatal(err)
		}
		if fastStats.Inserts >= preStats.Inserts {
			t.Errorf("size %d: gen2 Inserts %d not below pre-skip %d",
				size, fastStats.Inserts, preStats.Inserts)
		}
		if fastStats.ChainSteps >= preStats.ChainSteps {
			t.Errorf("size %d: gen2 ChainSteps %d not below pre-skip %d",
				size, fastStats.ChainSteps, preStats.ChainSteps)
		}
		if fastStats.ProbeBatches == 0 {
			t.Errorf("size %d: gen2 recorded no probe batches", size)
		}
		if preStats.ProbeBatches != 0 {
			t.Errorf("size %d: pre-skip matcher recorded %d probe batches",
				size, preStats.ProbeBatches)
		}
		rate := float64(fastStats.Inserts) / float64(size)
		if rate >= lastInsertRate {
			t.Errorf("size %d: insert rate %.4f did not fall (previous %.4f)",
				size, rate, lastInsertRate)
		}
		lastInsertRate = rate
	}
}

// TestStreamGen2MatchesWholeBuffer extends the streaming identity
// contract to the generation-two configuration: chunked writes must
// reproduce the whole-buffer command stream decision for decision,
// including the persistent skip stride across Write boundaries, and
// charge the identical operation counters.
func TestStreamGen2MatchesWholeBuffer(t *testing.T) {
	p := SWFastParams()
	inputs := gen2TestInputs(t)
	for iname, input := range inputs {
		want, wantStats, err := Compress(input, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{1, 7, 1024, 65536} {
			if chunk > len(input) && len(input) > 0 {
				chunk = len(input)
			}
			if len(input) == 0 {
				continue
			}
			got, stats := streamAll(t, input, p, chunk)
			if !token.Equal(got, want) {
				i := token.FirstDiff(got, want)
				t.Fatalf("%s/chunk %d: diverges from whole-buffer at cmd %d", iname, chunk, i)
			}
			if stats != *wantStats {
				t.Fatalf("%s/chunk %d: stats diverge from whole-buffer:\n got %+v\nwant %+v", iname, chunk, stats, *wantStats)
			}
		}
	}
}

// TestGen2DictRoundTrip checks the preset-dictionary entry point under
// the generation-two configuration (CompressTail shares the same loop).
func TestGen2DictRoundTrip(t *testing.T) {
	p := SWFastParams()
	dict := bytes.Repeat([]byte("header boilerplate value="), 40)
	data := append(bytes.Repeat([]byte("header boilerplate value=42 "), 20), workload.Random(512, 5)...)
	cmds, _, err := CompressWithDict(dict, data, p)
	if err != nil {
		t.Fatal(err)
	}
	out, err := token.ExpandWithHistory(dict, cmds)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("dictionary round trip mismatch")
	}
}
