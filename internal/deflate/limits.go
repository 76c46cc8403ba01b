package deflate

import (
	"errors"
	"fmt"
	"io"

	"lzssfpga/internal/bitio"
)

// ErrLimit reports that a stream, while possibly well-formed, asked the
// decoder to exceed a configured resource bound. It is wrapped together
// with ErrCorrupt so existing errors.Is(err, ErrCorrupt) checks treat a
// limit hit as a rejected stream.
var ErrLimit = errors.New("deflate: decode limit exceeded")

// DecodeLimits bounds what a decoder will do for untrusted input.
// Deflate can expand 1 byte of input into ~1032 bytes of output, so a
// tiny hostile stream can demand gigabytes; these caps make the decoder
// safe to expose to data straight off the wire. The zero value of a
// field means "unlimited" for that axis.
type DecodeLimits struct {
	// MaxOutputBytes caps the decompressed size.
	MaxOutputBytes int
	// MaxBlocks caps the number of Deflate blocks (a stream of endless
	// empty non-final blocks never produces output but never ends).
	MaxBlocks int
}

// DefaultDecodeLimits is what the unqualified entry points (Inflate,
// ZlibDecompress) enforce: generous for any legitimate testbench corpus,
// finite for hostile input.
func DefaultDecodeLimits() DecodeLimits {
	return DecodeLimits{
		MaxOutputBytes: 1 << 30,
		MaxBlocks:      1 << 20,
	}
}

func errOutputLimit(lim DecodeLimits) error {
	return fmt.Errorf("%w: %w: output exceeds %d bytes", ErrCorrupt, ErrLimit, lim.MaxOutputBytes)
}

// normEOF maps the reader-level end-of-input errors (bitio's sentinel,
// or a bare io.EOF from a source that ended mid-structure) onto the
// package's corruption contract: every truncation surfaces as an error
// matching both ErrCorrupt and io.ErrUnexpectedEOF. Errors already
// carrying ErrCorrupt pass through untouched.
func normEOF(err error) error {
	if err == nil || errors.Is(err, ErrCorrupt) {
		return err
	}
	if errors.Is(err, bitio.ErrUnexpectedEOF) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: truncated stream: %w", ErrCorrupt, io.ErrUnexpectedEOF)
	}
	return err
}

// InflateLimited decodes a complete raw Deflate stream under lim. It
// never panics on any input: structural violations and truncations
// return errors wrapping ErrCorrupt (truncations additionally match
// io.ErrUnexpectedEOF). The output is reserved at three times the
// input, or at lim.MaxOutputBytes if that is less, and grows by at least
// doubling, so its capacity never exceeds lim.MaxOutputBytes by more
// than token.MaxMatch+8 bytes, and its allocations add up to at most
// about three times lim.MaxOutputBytes.
func InflateLimited(data []byte, lim DecodeLimits) (out []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("%w: panic during decode: %v", ErrCorrupt, r)
		}
	}()
	return inflateAll(data, nil, lim)
}

// ZlibDecompressLimited parses an RFC 1950 container under lim,
// inflates the body, and verifies the Adler-32 trailer. Same no-panic
// and error-typing guarantees as InflateLimited.
func ZlibDecompressLimited(data []byte, lim DecodeLimits) (out []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("%w: panic during decode: %v", ErrCorrupt, r)
		}
	}()
	if len(data) < 6 {
		return nil, fmt.Errorf("%w: zlib stream too short: %w", ErrCorrupt, io.ErrUnexpectedEOF)
	}
	cmf, flg := data[0], data[1]
	if cmf&0x0F != 8 {
		return nil, fmt.Errorf("%w: compression method %d", ErrCorrupt, cmf&0x0F)
	}
	if (uint32(cmf)*256+uint32(flg))%31 != 0 {
		return nil, fmt.Errorf("%w: zlib header check", ErrCorrupt)
	}
	if flg&0x20 != 0 {
		return nil, fmt.Errorf("%w: preset dictionary unsupported", ErrCorrupt)
	}
	body := data[2 : len(data)-4]
	out, err = InflateLimited(body, lim)
	if err != nil {
		return nil, err
	}
	tr := data[len(data)-4:]
	want := uint32(tr[0])<<24 | uint32(tr[1])<<16 | uint32(tr[2])<<8 | uint32(tr[3])
	if got := AdlerChecksum(out); got != want {
		return nil, fmt.Errorf("%w: adler32 %08x != %08x", ErrCorrupt, got, want)
	}
	return out, nil
}

// ZlibDecompressDictLimited is ZlibDecompressDict under DecodeLimits:
// the hardened preset-dictionary decode path the serving layer exposes
// to data straight off the wire. The dictionary's trailing 32 KiB seed
// the inflater's history (match distances may reach into them), DICTID
// is verified against dict, and the output cap applies to the produced
// bytes — the seeded history does not consume limit budget. Same
// no-panic and error-typing guarantees as ZlibDecompressLimited.
func ZlibDecompressDictLimited(data, dict []byte, lim DecodeLimits) (out []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("%w: panic during decode: %v", ErrCorrupt, r)
		}
	}()
	if len(data) < 10 {
		return nil, fmt.Errorf("%w: dictionary zlib stream too short: %w", ErrCorrupt, io.ErrUnexpectedEOF)
	}
	cmf, flg := data[0], data[1]
	if cmf&0x0F != 8 {
		return nil, fmt.Errorf("%w: compression method %d", ErrCorrupt, cmf&0x0F)
	}
	if (uint32(cmf)*256+uint32(flg))%31 != 0 {
		return nil, fmt.Errorf("%w: zlib header check", ErrCorrupt)
	}
	if flg&0x20 == 0 {
		return nil, fmt.Errorf("%w: stream has no preset dictionary", ErrCorrupt)
	}
	dictID := uint32(data[2])<<24 | uint32(data[3])<<16 | uint32(data[4])<<8 | uint32(data[5])
	if got := AdlerChecksum(dict); got != dictID {
		return nil, fmt.Errorf("%w: DICTID %08x does not match dictionary %08x", ErrCorrupt, dictID, got)
	}
	hist := dict
	if len(hist) > 32768 {
		hist = hist[len(hist)-32768:]
	}
	full, err := inflateAll(data[6:len(data)-4], hist, lim)
	if err != nil {
		return nil, err
	}
	out = full[len(hist):]
	tr := data[len(data)-4:]
	want := uint32(tr[0])<<24 | uint32(tr[1])<<16 | uint32(tr[2])<<8 | uint32(tr[3])
	if got := AdlerChecksum(out); got != want {
		return nil, fmt.Errorf("%w: adler32 %08x != %08x", ErrCorrupt, got, want)
	}
	return out, nil
}

// ZlibDecompressDict decodes a preset-dictionary zlib stream, verifying
// DICTID against the supplied dictionary, under DefaultDecodeLimits;
// use ZlibDecompressDictLimited to choose the bounds.
func ZlibDecompressDict(data, dict []byte) ([]byte, error) {
	return ZlibDecompressDictLimited(data, dict, DefaultDecodeLimits())
}
