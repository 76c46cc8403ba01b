// Package checksum implements the two stream checksums the containers
// in this repository carry: Adler-32 (RFC 1950, the zlib trailer) and
// CRC-32/IEEE (RFC 1952 gzip trailers and Ethernet FCS). Adler-32 is
// written from its specification. CRC-32 is hash/crc32, which folds
// the data with carry-less multiplication where the CPU has it; the
// specification's byte-wise table lives in the tests as the oracle
// CRC32 and CRC32Update are checked against.
package checksum

import "hash/crc32"

// Adler32 is the RFC 1950 checksum (initial value 1).
type Adler32 struct {
	a, b uint32
}

const adlerMod = 65521

// NewAdler32 returns the checksum in its initial state.
func NewAdler32() *Adler32 { return &Adler32{a: 1} }

// Write folds p into the checksum. It never fails.
func (h *Adler32) Write(p []byte) (int, error) {
	a, b := h.a, h.b
	n := len(p)
	for len(p) > 0 {
		// Largest chunk for which b cannot overflow uint32 (zlib's NMAX).
		chunk := p
		if len(chunk) > 5552 {
			chunk = chunk[:5552]
		}
		for _, c := range chunk {
			a += uint32(c)
			b += a
		}
		a %= adlerMod
		b %= adlerMod
		p = p[len(chunk):]
	}
	h.a, h.b = a, b
	return n, nil
}

// Sum32 returns the current checksum value.
func (h *Adler32) Sum32() uint32 { return h.b<<16 | h.a }

// Adler32Sum is a one-shot convenience.
func Adler32Sum(data []byte) uint32 {
	h := NewAdler32()
	h.Write(data)
	return h.Sum32()
}

// CRC32 returns the IEEE CRC-32 of data.
func CRC32(data []byte) uint32 { return crc32.ChecksumIEEE(data) }

// CRC32Update continues a running checksum (crc from a previous call,
// or 0 to start).
func CRC32Update(crc uint32, data []byte) uint32 {
	return crc32.Update(crc, crc32.IEEETable, data)
}
