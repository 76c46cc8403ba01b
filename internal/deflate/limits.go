package deflate

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"lzssfpga/internal/bitio"
	"lzssfpga/internal/checksum"
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
func ZlibDecompressLimited(data []byte, lim DecodeLimits) ([]byte, error) {
	return zlibDecompress(data, nil, lim)
}

// ZlibDecompressDictLimited is ZlibDecompressDict under DecodeLimits:
// the hardened preset-dictionary decode path the serving layer exposes
// to data straight off the wire. The dictionary's trailing 32 KiB seed
// the inflater's history (match distances may reach into them), DICTID
// is verified against dict, and the output cap applies to the produced
// bytes — the seeded history does not consume limit budget. Same
// no-panic and error-typing guarantees as ZlibDecompressLimited.
func ZlibDecompressDictLimited(data, dict []byte, lim DecodeLimits) ([]byte, error) {
	if dict == nil {
		dict = []byte{} // an empty dictionary: the stream must still carry FDICT
	}
	return zlibDecompress(data, dict, lim)
}

// zlibHeader checks an RFC 1950 header's method and check bits, and
// that it announces a preset dictionary exactly when the caller has one.
func zlibHeader(cmf, flg uint32, dict bool) error {
	if cmf&0x0F != 8 {
		return fmt.Errorf("%w: compression method %d", ErrCorrupt, cmf&0x0F)
	}
	if (cmf*256+flg)%31 != 0 {
		return fmt.Errorf("%w: zlib header check", ErrCorrupt)
	}
	if fdict := flg&0x20 != 0; fdict != dict {
		if dict {
			return fmt.Errorf("%w: stream has no preset dictionary", ErrCorrupt)
		}
		return fmt.Errorf("%w: preset dictionary unsupported", ErrCorrupt)
	}
	return nil
}

// zlibDecompress is the body of both zlib decoders: a nil dict rejects
// an FDICT stream, any other dict requires one whose DICTID matches it.
func zlibDecompress(data, dict []byte, lim DecodeLimits) (out []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("%w: panic during decode: %v", ErrCorrupt, r)
		}
	}()
	body := 2
	if dict != nil {
		body = 6
	}
	if len(data) < body+4 {
		if dict != nil {
			return nil, fmt.Errorf("%w: dictionary zlib stream too short: %w", ErrCorrupt, io.ErrUnexpectedEOF)
		}
		return nil, fmt.Errorf("%w: zlib stream too short: %w", ErrCorrupt, io.ErrUnexpectedEOF)
	}
	if err := zlibHeader(uint32(data[0]), uint32(data[1]), dict != nil); err != nil {
		return nil, err
	}
	var hist []byte
	if dict != nil {
		dictID := binary.BigEndian.Uint32(data[2:])
		if got := checksum.Adler32Sum(dict); got != dictID {
			return nil, fmt.Errorf("%w: DICTID %08x does not match dictionary %08x", ErrCorrupt, dictID, got)
		}
		hist = dict[max(len(dict)-32768, 0):]
	}
	full, err := inflateAll(data[body:len(data)-4], hist, lim)
	if err != nil {
		return nil, err
	}
	out = full[len(hist):]
	if got, want := checksum.Adler32Sum(out), binary.BigEndian.Uint32(data[len(data)-4:]); got != want {
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
