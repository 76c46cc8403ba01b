package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"

	"lzssfpga/internal/cache"
	"lzssfpga/internal/deflate"
)

// configFingerprint folds every configuration axis that changes the
// bytes a compression produces into one 64-bit value — the Params part
// of the content-addressed cache key. Two servers (or two restarts of
// one) with equal fingerprints emit byte-identical streams for equal
// inputs, so the fingerprint is what makes a cache hit
// correct-by-construction rather than hopeful. Segment is included
// because the cut size changes Z_FULL_FLUSH placement; Resilient
// because the hardened path can legally emit stored-block degradations.
func configFingerprint(cfg Config) uint64 {
	p := cfg.Params
	h := fnv.New64a()
	fmt.Fprintf(h, "w=%d hb=%d mc=%d nice=%d il=%d lazy=%t ml=%d h4=%t skip=%d sa=%t seg=%d res=%t",
		p.Window, p.HashBits, p.MaxChain, p.Nice, p.InsertLimit,
		p.Lazy, p.MaxLazy, p.Hash4, p.SkipTrigger, p.SA, cfg.Segment, cfg.Resilient)
	return h.Sum64()
}

// resolveDict maps a request's negotiated dictionary ID onto the
// registered bytes. The empty ID is "no dictionary" (nil, nil); a
// non-empty ID against a nil registry or an unregistered name (the
// registry's only failure) returns ErrUnknownDict — the deterministic
// client error both fronts map to StatusUnknownDict / HTTP 400.
func (s *Server) resolveDict(id string) ([]byte, error) {
	if id == "" {
		return nil, nil
	}
	if s.cfg.Dicts == nil {
		return nil, fmt.Errorf("%w: %q (no dictionaries registered)", ErrUnknownDict, id)
	}
	d, err := s.cfg.Dicts.Resolve(id)
	if err != nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDict, id)
	}
	return d, nil
}

// compressCached is the engine entry both fronts share: dictionary-
// aware and cache-fronted. The cache key addresses (payload content,
// config fingerprint, dictionary ID), so a hit can only ever return
// the bytes this configuration would have computed; concurrent misses
// on one key coalesce onto a single engine pass. With no cache
// configured it degrades to a plain compute.
//
// The compute is one configured engine pass (see compress): a
// negotiated dictionary seeds segment 0's window and selects the FDICT
// container, and it runs under the request's context and trace and
// the configured resilience like any other request.
func (s *Server) compressCached(ctx context.Context, data []byte, dictID string, dictBytes []byte) ([]byte, error) {
	compute := func() ([]byte, error) {
		var buf writerBuf
		if err := s.compress(ctx, data, dictBytes, &buf); err != nil {
			return nil, err
		}
		return buf.b, nil
	}
	if s.cache == nil {
		return compute()
	}
	key := cache.KeyFor(data, s.fp, dictID)
	var verify func([]byte) error
	if s.cfg.CacheVerify {
		verify = func(z []byte) error {
			out, err := s.decompressDict(z, dictBytes)
			if err != nil {
				return err
			}
			if !bytes.Equal(out, data) {
				return errors.New("cached stream does not re-inflate to the request payload")
			}
			return nil
		}
	}
	out, _, err := s.cache.GetOrCompute(ctx, key, compute, verify)
	return out, err
}

// writerBuf collects a compressed stream by append. The cache charges
// a stored stream's length, not its capacity, so the slice it keeps
// must not carry the headroom of ParallelCompress's presized buffer.
type writerBuf struct{ b []byte }

func (w *writerBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// decompressDict inflates untrusted input z under the configured
// decode limits, seeding the inflater's history with the negotiated
// dictionary when one was resolved. Every rejection wraps ErrCorrupt,
// and it never panics.
func (s *Server) decompressDict(z, dictBytes []byte) ([]byte, error) {
	var out []byte
	var err error
	if dictBytes == nil {
		out, err = deflate.ZlibDecompressLimited(z, s.cfg.Decode)
	} else {
		out, err = deflate.ZlibDecompressDictLimited(z, dictBytes, s.cfg.Decode)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return out, nil
}

// CacheStats snapshots the result cache (zero Stats when no cache is
// configured) — surfaced for tests and operational introspection.
func (s *Server) CacheStats() cache.Stats {
	if s.cache == nil {
		return cache.Stats{}
	}
	return s.cache.Stats()
}
