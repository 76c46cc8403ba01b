// Package lzss implements the software reference LZSS compressor the
// paper measures against: a ZLib-style matcher built on head/next hash
// chains, with greedy (deflate_fast-like) and lazy matching and the
// min..max compression-level presets from the evaluation section.
//
// The same matching policy, hash function and parameters are shared with
// the cycle-accurate hardware model in internal/core, so the two can be
// compared command-for-command (the paper's ">1 TB verified against the
// software reference model" methodology).
package lzss

import (
	"fmt"
	"math/bits"

	"lzssfpga/internal/token"
)

// HashFunc maps the three bytes starting a string to a bucket in
// [0, 2^hashBits). The paper makes the exact hash function a
// compile-time generic of the design; we mirror that with a function
// value. Implementations must use only b0..b2 and must already mask to
// the table size they were built for.
type HashFunc func(b0, b1, b2 byte) uint32

// ZlibHash returns the hash ZLib's deflate uses: three iterations of
// h = (h<<shift ^ c) & mask with shift = ceil(hashBits/3). This is the
// default in both the software reference and the hardware model.
func ZlibHash(hashBits uint) HashFunc {
	shift := (hashBits + 2) / 3
	mask := uint32(1)<<hashBits - 1
	return func(b0, b1, b2 byte) uint32 {
		h := uint32(b0)
		h = (h << shift) ^ uint32(b1)
		h = (h << shift) ^ uint32(b2)
		return h & mask
	}
}

// MultiplicativeHash returns a Fibonacci-style multiplicative hash, an
// alternative policy with better mixing for small tables.
func MultiplicativeHash(hashBits uint) HashFunc {
	return func(b0, b1, b2 byte) uint32 {
		v := uint32(b0) | uint32(b1)<<8 | uint32(b2)<<16
		return (v * 2654435761) >> (32 - hashBits)
	}
}

// Params configures the matcher. The fields correspond to the paper's
// compile-time generics (Window, HashBits, Hash) and run-time
// parameters (MaxChain — "matching iteration limit" — Nice, InsertLimit,
// Lazy/MaxLazy).
type Params struct {
	// Window is the dictionary (sliding window) size in bytes. Must be
	// a power of two in [1 KiB, 32 KiB].
	Window int
	// HashBits sets the head-table size to 2^HashBits entries.
	HashBits uint
	// MaxChain bounds how many chain candidates are examined per match
	// attempt (the paper's "matching iteration limit" run-time knob).
	MaxChain int
	// Nice stops the candidate search early once a match of at least
	// this length has been found (zlib's nice_match).
	Nice int
	// InsertLimit is the longest match whose every byte is still
	// inserted into the hash table; longer matches skip insertion
	// ("if a full hash table updating can be performed — decided based
	// on match length", paper §IV). Fig 5 puts the hardware limit at 4.
	InsertLimit int
	// Lazy enables one-step-deferred matching (zlib's slow path). The
	// hardware is always greedy; lazy is a software-only level feature.
	Lazy bool
	// MaxLazy: with Lazy set, a previous match shorter than MaxLazy may
	// be displaced by a longer match starting one byte later.
	MaxLazy int
	// Hash is the hash policy; nil selects ZlibHash(HashBits). A
	// non-nil Hash must mask to this HashBits — when changing HashBits
	// on a validated Params, reset Hash to nil so Validate re-derives
	// it (a stale wider hash would index past the head table).
	Hash HashFunc
	// Hash4 widens the head hash from the three bytes the wire format's
	// MinMatch implies to the four bytes starting a string, mixed with a
	// Fibonacci multiplier. Chains then link only strings sharing a full
	// 4-byte prefix, so collision-driven compares all but vanish — the
	// price is that 3-byte matches are no longer findable, raising the
	// effective minimum emitted match to 4 (the LZ4/deflate-fast design
	// point). Generation-two speed levels enable it; levels whose output
	// depends on MinMatch=3 (the lazy ratio levels, the hardware model's
	// configuration) keep the 3-byte hash and their exact output. Greedy
	// only, and incompatible with a custom Hash policy.
	Hash4 bool
	// SA selects the suffix-array matcher (internal/lzss/sa) instead of
	// hash chains: the block is indexed up front (suffix array + LCP,
	// O(n log n)) and every match attempt scans outward from the
	// position's rank, so the longest previous occurrence is found
	// exactly rather than approximated by bounded chain walks. MaxChain
	// bounds the per-direction rank-neighbour scan and Nice keeps its
	// early-exit meaning; HashBits, InsertLimit and the hash-policy
	// fields are ignored. This is the high-ratio tier behind levels
	// 10-12 (SARatioParams). It runs inside Matcher like the chains, but
	// its index is block-oriented and does not slide, so
	// StreamCompressor (the sliding buffer over Matcher) rejects it. It
	// is also incompatible with the generation-two greedy features
	// (Hash4, SkipTrigger) and custom Hash policies.
	SA bool
	// SkipTrigger, when non-zero, enables match-skip acceleration in the
	// greedy loop: after a run of R consecutive failed probes the
	// probe/insert stride grows to 1 + R>>SkipTrigger (capped at
	// maxSkipStride), so incompressible input stops paying for dead
	// chain walks and approaches memcpy speed. Skipped positions are
	// neither probed nor inserted. Smaller values accelerate sooner;
	// zlib-era levels leave it 0 (stride always 1, exact current
	// output). Greedy only.
	SkipTrigger uint
	// defaultHash records that Validate installed ZlibHash itself, so
	// the matcher may inline the computation instead of calling through
	// the function value (the hot-path devirtualization; any
	// caller-supplied Hash — even a ZlibHash — takes the generic path).
	defaultHash bool
}

// Validate checks parameter sanity and fills derived defaults.
func (p *Params) Validate() error {
	if p.Window < 1024 || p.Window > token.MaxDistance || p.Window&(p.Window-1) != 0 {
		return fmt.Errorf("lzss: window %d must be a power of two in [1024,%d]", p.Window, token.MaxDistance)
	}
	if p.HashBits < 7 || p.HashBits > 20 {
		return fmt.Errorf("lzss: hash bits %d out of [7,20]", p.HashBits)
	}
	if p.MaxChain < 1 {
		return fmt.Errorf("lzss: max chain %d must be >= 1", p.MaxChain)
	}
	if p.Nice < token.MinMatch {
		p.Nice = token.MinMatch
	}
	if p.Nice > token.MaxMatch {
		p.Nice = token.MaxMatch
	}
	if p.InsertLimit < token.MinMatch {
		p.InsertLimit = token.MinMatch
	}
	if p.Lazy && p.MaxLazy < token.MinMatch {
		p.MaxLazy = token.MinMatch
	}
	if p.Hash4 || p.SkipTrigger != 0 {
		if p.Lazy {
			return fmt.Errorf("lzss: hash4/skip are greedy-loop features, incompatible with lazy matching")
		}
		if p.SkipTrigger > 16 {
			return fmt.Errorf("lzss: skip trigger %d out of [0,16]", p.SkipTrigger)
		}
	}
	if p.SA {
		if p.Hash4 || p.SkipTrigger != 0 {
			return fmt.Errorf("lzss: the suffix-array matcher is incompatible with hash4/skip (chain-table features)")
		}
		if p.Hash != nil && !p.defaultHash {
			return fmt.Errorf("lzss: the suffix-array matcher does not hash; leave Hash nil")
		}
	}
	// A Hash installed by a previous Validate (defaultHash) is not a
	// caller policy choice and re-validates cleanly.
	if p.Hash4 && p.Hash != nil && !p.defaultHash {
		return fmt.Errorf("lzss: hash4 replaces the 3-byte hash policy; leave Hash nil")
	}
	if p.Hash == nil {
		p.Hash = ZlibHash(p.HashBits)
		p.defaultHash = true
	}
	return nil
}

// gen2 reports whether any generation-two hot-path feature is enabled
// (the tier label; the greedy loop serves both generations).
func (p Params) gen2() bool { return p.Hash4 || p.SkipTrigger != 0 }

// HasCustomHash reports whether the caller supplied its own Hash
// policy (as opposed to the ZlibHash a Validate installs). A custom
// hash changes emitted streams in ways no numeric field captures, so
// layers that fingerprint Params for content-addressed caching must
// treat such configurations as uncacheable.
func (p Params) HasCustomHash() bool { return p.Hash != nil && !p.defaultHash }

// minHash is the number of bytes a position must have left to be
// hashable (and the shortest match the matcher can find): 4 with Hash4,
// otherwise the wire format's MinMatch.
func (p Params) minHash() int {
	if p.Hash4 {
		return 4
	}
	return token.MinMatch
}

// SameConfig reports whether q configures an identical matcher:
// same geometry and matching policy, and both using the validated
// default hash. Custom Hash functions are never considered identical
// (function values cannot be compared), so callers pooling matchers
// across configurations must rebuild when either side is custom.
func (p Params) SameConfig(q Params) bool {
	return p.defaultHash && q.defaultHash &&
		p.Window == q.Window && p.HashBits == q.HashBits &&
		p.MaxChain == q.MaxChain && p.Nice == q.Nice &&
		p.InsertLimit == q.InsertLimit && p.Lazy == q.Lazy &&
		p.MaxLazy == q.MaxLazy && p.SA == q.SA &&
		p.Hash4 == q.Hash4 && p.SkipTrigger == q.SkipTrigger
}

// Tier names the matcher family and parse policy a Params selects —
// an informational label for traces and logs, not a config key.
func (p Params) Tier() string {
	switch {
	case p.SA && p.Lazy:
		return "sa-optimal"
	case p.SA:
		return "sa-greedy"
	case p.gen2():
		return "chain-gen2"
	case p.Lazy:
		return "chain-lazy"
	default:
		return "chain-greedy"
	}
}

// WindowBits returns log2(Window).
func (p Params) WindowBits() uint { return uint(bits.TrailingZeros(uint(p.Window))) }

// Level identifies a compression-level preset from the paper's Fig 4
// ("min" and "max" compression levels).
type Level int

const (
	// LevelMin mirrors ZLib level 1 / deflate_fast: the speed-optimized
	// setting the paper uses as its reference point.
	LevelMin Level = 1
	// LevelDefault mirrors ZLib level 6.
	LevelDefault Level = 6
	// LevelMax mirrors ZLib level 9: longest chains, lazy matching.
	LevelMax Level = 9
	// LevelSAMin..LevelSAMax (10-12) select the suffix-array high-ratio
	// tier: exact longest-match search over a fully indexed block, lazy
	// parsing, widening scan budgets. Same zlib output format as every
	// other level; see SARatioParams.
	LevelSAMin Level = 10
	LevelSAMax Level = 12
)

// LevelParams returns the preset for level with the given geometry.
// The (chain, lazy, nice) triples follow zlib's configuration_table.
func LevelParams(level Level, window int, hashBits uint) Params {
	p := Params{Window: window, HashBits: hashBits}
	switch {
	case level <= 1:
		p.MaxChain, p.Nice, p.InsertLimit, p.Lazy = 4, 8, 4, false
		p.Hash4, p.SkipTrigger = true, 5
	case level <= 3:
		p.MaxChain, p.Nice, p.InsertLimit, p.Lazy = 8, 16, 8, false
		p.Hash4, p.SkipTrigger = true, 6
	case level <= 6:
		p.MaxChain, p.Nice, p.InsertLimit, p.Lazy, p.MaxLazy = 128, 128, 16, true, 16
	case level <= 9:
		p.MaxChain, p.Nice, p.InsertLimit, p.Lazy, p.MaxLazy = 4096, token.MaxMatch, 32, true, token.MaxMatch
	default:
		// Suffix-array tier: exact longest-match table + cost-model
		// optimal parse (Lazy selects the non-greedy parse, which for SA
		// is compressSAOptimal). MaxChain is the per-direction
		// rank-neighbour scan budget; with the sliding region fully
		// indexed even small budgets see the true longest match almost
		// always, so the levels widen the budget for the tail cases
		// (dense rank neighbourhoods on low-entropy data) and the
		// equal-length smallest-distance sweep.
		p.SA, p.Lazy, p.MaxLazy = true, true, token.MaxMatch
		p.Nice, p.InsertLimit = token.MaxMatch, token.MinMatch
		switch {
		case level <= 10:
			p.MaxChain = 32
		case level <= 11:
			p.MaxChain = 128
		default:
			p.MaxChain = 512
		}
	}
	return p
}

// SARatioParams returns the suffix-array high-ratio preset for level
// (clamped to 10..12) at the full 32 KiB zlib window — the
// cold-storage complement of HWSpeedParams' realtime design point.
// Output is still plain RFC 1950/1951; only the match search differs.
func SARatioParams(level Level) Params {
	if level < LevelSAMin {
		level = LevelSAMin
	}
	if level > LevelSAMax {
		level = LevelSAMax
	}
	return LevelParams(level, token.MaxDistance, 15)
}

// HWSpeedParams returns the hardware configuration the paper optimizes
// for speed in Table I: 4 KB dictionary, 15-bit hash, greedy matching
// with a short chain limit. Its output is pinned bit-for-bit to the
// cycle-accurate hardware model, so it never carries the generation-two
// software features — SWFastParams is that design point.
func HWSpeedParams() Params {
	return Params{Window: 4096, HashBits: 15, MaxChain: 4, Nice: 8, InsertLimit: 4}
}

// SWFastParams is the software generation-two speed setting:
// HWSpeedParams' geometry plus match-skip acceleration, 4-byte hash
// heads and batched probe prefetch. It trades the hardware model's
// exact output (3-byte matches are gone, incompressible runs are
// skipped over) for pure-software throughput; the stream is still
// standard and byte-round-trips through any inflater.
func SWFastParams() Params {
	p := HWSpeedParams()
	p.Hash4 = true
	p.SkipTrigger = 5
	return p
}

// Stats counts the elementary operations a compression run performs.
// The software cost model (internal/swmodel) prices these to estimate
// PowerPC throughput, and tests use them to check matcher behaviour.
type Stats struct {
	// InputBytes processed.
	InputBytes int64
	// Literals and Matches emitted.
	Literals int64
	Matches  int64
	// MatchedBytes is the total length of all matches.
	MatchedBytes int64
	// HashComputes counts hash evaluations (inserts + probes).
	HashComputes int64
	// HeadReads counts head-table probes.
	HeadReads int64
	// ChainSteps counts candidate strings examined.
	ChainSteps int64
	// CompareBytes counts byte comparisons performed while matching.
	CompareBytes int64
	// Inserts counts head/next chain insertions.
	Inserts int64
	// LazyEvals counts deferred-match evaluations (lazy mode only).
	LazyEvals int64
	// ProbeBatches counts candidate batches resolved by the batched
	// probe-prefetch stage (Hash4 path only): each batch gathers up to
	// probeBatchSize chain candidates and touches their windows before
	// any compare runs — the software mirror of the paper's
	// hash-prefetch FSM. ChainSteps/ProbeBatches approximates the
	// average batch fill.
	ProbeBatches int64
}

// Ratio returns InputBytes / outputBytes given an encoded size.
func (s Stats) Ratio(outputBytes int64) float64 {
	if outputBytes == 0 {
		return 0
	}
	return float64(s.InputBytes) / float64(outputBytes)
}

// AvgMatchLen returns the mean emitted match length.
func (s Stats) AvgMatchLen() float64 {
	if s.Matches == 0 {
		return 0
	}
	return float64(s.MatchedBytes) / float64(s.Matches)
}

// CRCHash returns a hash built from a nibble-wide CRC update — the kind
// of polynomial mixer that maps well onto FPGA LUTs. Another instance
// of the paper's "exact hash function" compile-time policy.
func CRCHash(hashBits uint) HashFunc {
	// CRC-16/CCITT table over nibbles, built once per policy instance.
	var tab [16]uint16
	for i := range tab {
		c := uint16(i) << 12
		for k := 0; k < 4; k++ {
			if c&0x8000 != 0 {
				c = c<<1 ^ 0x1021
			} else {
				c <<= 1
			}
		}
		tab[i] = c
	}
	mask := uint32(1)<<hashBits - 1
	update := func(c uint16, b byte) uint16 {
		c = c<<4 ^ tab[(c>>12)^uint16(b>>4)]
		c = c<<4 ^ tab[(c>>12)^uint16(b&0xF)]
		return c
	}
	return func(b0, b1, b2 byte) uint32 {
		c := update(update(update(0xFFFF, b0), b1), b2)
		return uint32(c) & mask
	}
}
