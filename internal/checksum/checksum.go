// Package checksum implements the two stream checksums the containers
// in this repository carry: Adler-32 (RFC 1950, the zlib trailer) and
// CRC-32/IEEE (RFC 1952 gzip trailers and Ethernet FCS). Both are the
// standard library's: hash/adler32, which unrolls its sums, and
// hash/crc32, which folds the data with carry-less multiplication where
// the CPU has it. Each specification's byte-at-a-time loop lives in the
// tests as the oracle the functions here are checked against.
package checksum

import (
	"hash"
	"hash/adler32"
	"hash/crc32"
)

// Adler32 is the RFC 1950 checksum (initial value 1).
type Adler32 struct {
	h hash.Hash32
}

// NewAdler32 returns the checksum in its initial state.
func NewAdler32() *Adler32 { return &Adler32{h: adler32.New()} }

// Write folds p into the checksum. It never fails.
func (h *Adler32) Write(p []byte) (int, error) { return h.h.Write(p) }

// Sum32 returns the current checksum value.
func (h *Adler32) Sum32() uint32 { return h.h.Sum32() }

// Adler32Sum is a one-shot convenience.
func Adler32Sum(data []byte) uint32 { return adler32.Checksum(data) }

// CRC32 returns the IEEE CRC-32 of data.
func CRC32(data []byte) uint32 { return crc32.ChecksumIEEE(data) }

// CRC32Update continues a running checksum (crc from a previous call,
// or 0 to start).
func CRC32Update(crc uint32, data []byte) uint32 {
	return crc32.Update(crc, crc32.IEEETable, data)
}
