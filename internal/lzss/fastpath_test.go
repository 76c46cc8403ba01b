package lzss

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"lzssfpga/internal/token"
	"lzssfpga/internal/workload"
)

// These tests pin the word-at-a-time fast path to a naive byte-at-a-time
// reference: commands, every stats counter AND both histograms must be
// identical, because the software cost model prices the counters and
// the scrape publishes the histograms (batching the increments is
// allowed, changing what gets counted is not).

// refRun is what a greedy run leaves behind: its commands, its Stats
// and its match-length and chain-depth histograms.
type refRun struct {
	cmds  []token.Command
	stats Stats
	ml    [numMatchLenBuckets]int64
	cd    [numChainDepthBuckets]int64
}

// diff describes the first way r departs from want, or returns "".
func (r *refRun) diff(want *refRun) string {
	switch {
	case !token.Equal(r.cmds, want.cmds):
		return fmt.Sprintf("commands diverge at %d of %d (reference %d)", token.FirstDiff(r.cmds, want.cmds), len(r.cmds), len(want.cmds))
	case r.stats != want.stats:
		return fmt.Sprintf("stats diverge:\n got  %+v\n want %+v", r.stats, want.stats)
	case r.ml != want.ml:
		return fmt.Sprintf("match-length histogram %v, want %v", r.ml, want.ml)
	case r.cd != want.cd:
		return fmt.Sprintf("chain-depth histogram %v, want %v", r.cd, want.cd)
	}
	return ""
}

// scanBucket is the linear scan over a histogram's bounds, the oracle
// for the bucket tables: the index of the first bound at or above n.
func scanBucket(bounds []int64, n int64) int {
	for i, b := range bounds {
		if n <= b {
			return i
		}
	}
	return len(bounds)
}

// fastRun compresses buf[origin:] on a fresh matcher — CompressReuse,
// or CompressTail with buf[:origin] as history — and returns what the
// run left in the matcher.
func fastRun(t testing.TB, buf []byte, origin int, p Params) refRun {
	t.Helper()
	m, err := NewMatcher(nil, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	var cmds []token.Command
	if origin > 0 {
		cmds = CompressTail(nil, m, buf, origin)
	} else {
		cmds = CompressReuse(nil, m, buf)
	}
	return refRun{cmds: cmds, stats: *m.Stats(), ml: m.mlHist, cd: m.cdHist}
}

// findMatchRun compresses buf[origin:] greedily through FindMatch,
// InsertRange and the emitLit/emitCopy helpers, so FindMatch's own walk
// — the lazy loop's probe and the exported single probe — is held to
// the same reference as the greedy loop's written-out walk.
func findMatchRun(t testing.TB, buf []byte, origin int, p Params) refRun {
	t.Helper()
	m, err := NewMatcher(buf, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.stats.InputBytes = int64(len(buf) - origin)
	m.InsertRange(0, m.insertEnd(origin))
	hashable := m.insertEnd(len(buf))
	var cmds []token.Command
	for pos := origin; pos < len(buf); {
		length, dist := 0, 0
		if pos < hashable {
			length, dist = m.FindMatch(pos)
		}
		if length == 0 {
			cmds = emitLit(cmds, m, buf[pos])
			pos++
			continue
		}
		cmds = emitCopy(cmds, m, dist, length)
		if length <= m.p.InsertLimit {
			m.InsertRange(pos+1, min(pos+length, hashable))
		}
		pos += length
	}
	return refRun{cmds: cmds, stats: *m.Stats(), ml: m.mlHist, cd: m.cdHist}
}

// naiveGreedy is an independent reimplementation of the greedy policy
// with per-operation stats charging and one-byte-at-a-time comparison —
// the pre-optimization semantics, kept deliberately simple-minded. It
// compresses src[origin:], first inserting src[:origin] as
// CompressTail does.
func naiveGreedy(src []byte, origin int, p Params) (refRun, error) {
	if err := p.Validate(); err != nil {
		return refRun{}, err
	}
	r := refRun{stats: Stats{InputBytes: int64(len(src) - origin)}}
	s := &r.stats
	head := make([]int, 1<<p.HashBits)
	for i := range head {
		head[i] = -1
	}
	prev := make([]int, p.Window)
	mask := p.Window - 1
	hash := func(pos int) uint32 {
		s.HashComputes++
		return p.Hash(src[pos], src[pos+1], src[pos+2])
	}
	insert := func(pos int) {
		h := hash(pos)
		s.Inserts++
		prev[pos&mask] = head[h]
		head[h] = pos
	}
	for i := 0; i < origin-token.MinMatch+1; i++ {
		insert(i)
	}
	pos := origin
	for pos < len(src) {
		if len(src)-pos < token.MinMatch {
			for ; pos < len(src); pos++ {
				s.Literals++
				r.cmds = append(r.cmds, token.Lit(src[pos]))
			}
			break
		}
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
			n := 0
			for n < maxLen && src[cand+n] == src[pos+n] {
				n++
				s.CompareBytes++
			}
			if n < maxLen {
				s.CompareBytes++ // the mismatching byte was also read
			}
			if n > bestLen {
				bestLen, bestDist = n, pos-cand
				if bestLen >= p.Nice || bestLen == maxLen {
					break
				}
			}
			cand = prev[cand&mask]
		}
		r.cd[scanBucket(chainDepthBounds, depth)]++
		if bestLen >= token.MinMatch {
			s.Matches++
			s.MatchedBytes += int64(bestLen)
			r.ml[scanBucket(matchLenBounds, int64(bestLen))]++
			r.cmds = append(r.cmds, token.Copy(bestDist, bestLen))
			end := pos + bestLen
			if bestLen <= p.InsertLimit {
				to := end
				if limit := len(src) - token.MinMatch + 1; to > limit {
					to = limit
				}
				for i := pos + 1; i < to; i++ {
					insert(i)
				}
			}
			pos = end
		} else {
			s.Literals++
			r.cmds = append(r.cmds, token.Lit(src[pos]))
			pos++
		}
	}
	return r, nil
}

// greedyRefParams are the generation-one rows naiveGreedy checks: the
// hardware setting, a mid-depth one, a deep chain on a small table, and
// a caller's HashFunc (the loop's non-inline hash).
func greedyRefParams() map[string]Params {
	mult := HWSpeedParams()
	mult.Hash = MultiplicativeHash(mult.HashBits)
	return map[string]Params{
		"hwspeed":        HWSpeedParams(),
		"test":           testParams(),
		"deep":           {Window: 4096, HashBits: 10, MaxChain: 256, Nice: 258, InsertLimit: 64},
		"multiplicative": mult,
	}
}

// TestBucketTablesMatchScan holds the bucket tables to the scans they
// replaced for every legal match length and every chain depth to one
// past LevelMax's 4096, the depths above the table included.
func TestBucketTablesMatchScan(t *testing.T) {
	for n := 0; n <= token.MaxMatch; n++ {
		if got, want := matchLenBucket(n), scanBucket(matchLenBounds, int64(n)); got != want {
			t.Fatalf("matchLenBucket(%d) = %d, scan %d", n, got, want)
		}
	}
	for n := int64(0); n <= 4097; n++ {
		if got, want := chainDepthBucket(n), scanBucket(chainDepthBounds, n); got != want {
			t.Fatalf("chainDepthBucket(%d) = %d, scan %d", n, got, want)
		}
	}
}

// fastPathCorpora builds the inputs that stress the word-compare edges:
// random (no matches), all-zero (maximal runs, word loads always equal),
// period-3 (match length never a multiple of 8), a crafted near-match at
// the window edge (distance Window-1 admissible, Window not), and the
// workload generators the evaluation uses.
func fastPathCorpora(window int) map[string][]byte {
	rng := rand.New(rand.NewSource(41))
	random := make([]byte, 60_000)
	rng.Read(random)

	zeros := make([]byte, 50_000)

	period3 := bytes.Repeat([]byte("abc"), 20_000)

	// Window edge: a 64-byte phrase planted so its repeats sit exactly at
	// distance window-1 (a legal match) and distance window (illegal, the
	// wire format reserves D=0, so window itself is excluded). The second
	// copy differs in byte 40 to exercise the partial-word mismatch path.
	edge := make([]byte, 3*window)
	rng.Read(edge)
	phrase := edge[:64]
	copy(edge[window-1:], phrase)      // distance window-1 from pos 0
	copy(edge[2*window:], phrase)      // distance window+1 from the copy above
	edge[window-1+40] ^= 0x5A          // near-match: diverges at byte 40
	copy(edge[window:window+3], "xyz") // avoid an accidental run across the seam

	return map[string][]byte{
		"random":      random,
		"zeros":       zeros,
		"period3":     period3,
		"window-edge": edge,
		"wiki":        workload.Wiki(120_000, 42),
		"can":         workload.CAN(120_000, 42),
	}
}

// TestGreedyMatchesNaiveReference runs every generation-one row over
// every corpus, plus a CompressTail row whose first 3,000 bytes are
// dictionary history, through the greedy loop and through FindMatch.
func TestGreedyMatchesNaiveReference(t *testing.T) {
	type row struct {
		p      Params
		origin int
	}
	rows := map[string]row{"tail": {HWSpeedParams(), 3000}}
	for name, p := range greedyRefParams() {
		rows[name] = row{p, 0}
	}
	for rname, r := range rows {
		for cname, data := range fastPathCorpora(4096) {
			want, err := naiveGreedy(data, r.origin, r.p)
			if err != nil {
				t.Fatal(err)
			}
			got := fastRun(t, data, r.origin, r.p)
			if d := got.diff(&want); d != "" {
				t.Fatalf("%s/%s: %s", rname, cname, d)
			}
			probe := findMatchRun(t, data, r.origin, r.p)
			if d := probe.diff(&want); d != "" {
				t.Fatalf("%s/%s: through FindMatch: %s", rname, cname, d)
			}
		}
	}
}

func TestMatchLenMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := make([]byte, 4096)
	for i := range src {
		src[i] = byte(rng.Intn(3)) // low entropy: long common prefixes
	}
	naive := func(a, b, maxLen int) int {
		n := 0
		for n < maxLen && src[a+n] == src[b+n] {
			n++
		}
		return n
	}
	for trial := 0; trial < 20_000; trial++ {
		b := 1 + rng.Intn(len(src)-1)
		a := rng.Intn(b)
		maxLen := rng.Intn(len(src) - b + 1)
		if got, want := matchLen(src, a, b, maxLen), naive(a, b, maxLen); got != want {
			t.Fatalf("matchLen(a=%d,b=%d,max=%d) = %d, naive %d", a, b, maxLen, got, want)
		}
	}
	// All-equal window: must return exactly maxLen, never beyond.
	same := bytes.Repeat([]byte{0xEE}, 600)
	for _, maxLen := range []int{0, 1, 7, 8, 9, 255, 258} {
		if got := matchLen(same, 0, 300, maxLen); got != maxLen {
			t.Fatalf("all-equal matchLen max=%d: got %d", maxLen, got)
		}
	}
}

func TestCompressTailMatchesCompressWithDict(t *testing.T) {
	p := HWSpeedParams()
	data := workload.Wiki(100_000, 9)
	for _, dictLen := range []int{0, 100, p.Window - 1} {
		dict := workload.Wiki(dictLen+1, 5)[:dictLen]
		want, _, err := CompressWithDict(dict, data, p)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMatcher(nil, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		buf := append(append([]byte{}, dict...), data...)
		got := CompressTail(nil, m, buf, len(dict))
		if !token.Equal(got, want) {
			t.Fatalf("dictLen=%d: CompressTail diverges from CompressWithDict at %d",
				dictLen, token.FirstDiff(got, want))
		}
	}
}

// TestCompressReuseMatchesCompress pins matcher reuse across Resets:
// a recycled matcher must produce the identical stream a fresh one does.
func TestCompressReuseMatchesCompress(t *testing.T) {
	p := HWSpeedParams()
	m, err := NewMatcher(nil, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	var cmds []token.Command
	for i, data := range [][]byte{
		workload.Wiki(80_000, 1),
		workload.CAN(80_000, 2),
		bytes.Repeat([]byte("abc"), 10_000),
		workload.Wiki(80_000, 1), // repeat of the first: chains must not leak
	} {
		cmds = CompressReuse(cmds[:0], m, data)
		want, _, err := Compress(data, p)
		if err != nil {
			t.Fatal(err)
		}
		if !token.Equal(cmds, want) {
			t.Fatalf("block %d: reused matcher diverges at %d", i, token.FirstDiff(cmds, want))
		}
	}
}

// TestCompressCommandBufferAllocBound holds Compress to one command
// buffer: compressing 256 KiB of wiki or CAN may allocate at most 2.5x
// the final command bytes, matcher tables included. Reserving a third
// of a command per byte, CAN (0.42 commands per byte) regrew by append
// and allocated 3.0x.
func TestCompressCommandBufferAllocBound(t *testing.T) {
	for name, data := range map[string][]byte{
		"wiki": workload.Wiki(256<<10, 1),
		"can":  workload.CAN(256<<10, 1),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cmds, _, err := Compress(data, HWSpeedParams())
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		cmdBytes := uint64(len(cmds)) * uint64(unsafe.Sizeof(token.Command{}))
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d commands (%d B), allocated %d B (%.2fx)", name, len(cmds), cmdBytes, alloc, float64(alloc)/float64(cmdBytes))
		if 2*alloc > 5*cmdBytes {
			t.Errorf("%s: allocated %d B, over 2.5x the %d B of final commands", name, alloc, cmdBytes)
		}
	}
}
