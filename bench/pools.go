package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"

	"lzssfpga"
	"lzssfpga/internal/cache/dict"
	"lzssfpga/internal/workload"
)

// classes are the content classes of the serving workloads; each is a
// workload generator and a built-in preset dictionary of the same name.
var classes = []struct {
	name string
	gen  workload.Generator
}{{"wiki", workload.Wiki}, {"json", workload.JSONish}, {"can", workload.CAN}}

// pool is a serving workload's generated inputs: the request stream
// drawn from them, the payload bytes of a request, and the check of a
// response.
type pool interface {
	stream(seed int64) func(nonce uint64) op
	build(o op) []byte
	check(o op, resp []byte) error
}

// pieces returns n bytes of gen joined from pieces of size piece, each
// generated from its own seed, so that no single seed's quirks set the
// properties of the whole.
func pieces(gen workload.Generator, n, piece int, seed int64) []byte {
	out := make([]byte, 0, n)
	for k := 0; len(out) < n; k++ {
		out = append(out, gen(min(piece, n-len(out)), subSeed(seed, 0, k))...)
	}
	return out
}

// stamp writes the 8-byte nonce over the start of a copy of b.
func stamp(b []byte, nonce uint64) []byte {
	out := append([]byte(nil), b...)
	binary.LittleEndian.PutUint64(out, nonce)
	return out
}

// blockPool serves unique payloads: each compress request is a pooled
// block stamped with its own nonce, so no two payloads are equal and a
// result cache never hits. Decompress requests carry streams made at
// set-up by the repository's parallel compressor, the daemon's path.
type blockPool struct {
	blocks    [][]byte
	zin, zraw [][]byte
}

// blockDecompEvery makes every fourth request of a block stream a
// decompress: a fixed 75/25 mix, so the decompress share does not
// vary from seed to seed.
const blockDecompEvery = 4

func newBlockPool(seed int64, size, perClass int) (*blockPool, error) {
	p := &blockPool{}
	for c, cl := range classes {
		for j := 0; j < perClass; j++ {
			p.blocks = append(p.blocks, cl.gen(size, subSeed(seed, c, j)))
		}
	}
	for j := 0; j < len(p.blocks); j += 4 {
		z, err := lzssfpga.CompressParallel(p.blocks[j], hw, 0, 0)
		if err == nil {
			err = checkZlib(z, nil, p.blocks[j])
		}
		if err != nil {
			return nil, fmt.Errorf("decompress input %d: %w", j, err)
		}
		p.zin = append(p.zin, z)
		p.zraw = append(p.zraw, p.blocks[j])
	}
	return p, nil
}

func (p *blockPool) stream(seed int64) func(uint64) op {
	rng := rand.New(rand.NewSource(seed))
	var k int
	return func(nonce uint64) op {
		if k++; k%blockDecompEvery == 0 {
			return op{decompress: true, idx: rng.Intn(len(p.zin))}
		}
		return op{idx: rng.Intn(len(p.blocks)), nonce: nonce}
	}
}

func (p *blockPool) build(o op) []byte {
	if o.decompress {
		return p.zin[o.idx]
	}
	return stamp(p.blocks[o.idx], o.nonce)
}

func (p *blockPool) check(o op, resp []byte) error {
	if o.decompress {
		return equalBytes(resp, p.zraw[o.idx])
	}
	return checkZlib(resp, nil, p.build(o))
}

const (
	hotObjects     = 2000
	hotObjectSize  = 16 << 10
	hotStride      = 1 << 10 // offset step between neighbouring objects of a class
	hotPiece       = 64 << 10
	hotSpread      = 263 // shares no factor with the 667 windows of a class
	hotZipfS       = 1.1
	hotDecompEvery = 5  // every fifth request is a decompress
	hotDictStreams = 48 // dictionary streams the decompress requests draw from
)

// objectPool serves hot objects: 2,000 distinct 16 KiB objects drawn
// Zipf(1.1), so a few are requested often and most rarely. Object j
// belongs to class j%3 and is a window of that class's corpus stamped
// with j. Half the compress requests negotiate the class's preset
// dictionary; decompress requests carry dictionary streams made at
// set-up.
type objectPool struct {
	corpora [][]byte
	dicts   map[string][]byte // the built-in dictionaries lzssd -dicts all registers
	zin     [][]byte          // stream k decodes to object k
}

func newObjectPool(seed int64) (*objectPool, error) {
	p := &objectPool{dicts: map[string][]byte{}}
	perClass := (hotObjects + len(classes) - 1) / len(classes)
	for c, cl := range classes {
		p.corpora = append(p.corpora, pieces(cl.gen, perClass*hotStride+hotObjectSize, hotPiece, subSeed(seed, c, 0)))
		d, err := dict.Builtin(cl.name)
		if err != nil {
			return nil, err
		}
		p.dicts[cl.name] = d
	}
	for j := 0; j < hotDictStreams; j++ {
		obj := p.object(j)
		d := p.dicts[classes[j%len(classes)].name]
		z, err := lzssfpga.CompressDict(obj, d, hw)
		if err == nil {
			err = checkZlib(z, d, obj)
		}
		if err != nil {
			return nil, fmt.Errorf("dictionary stream %d: %w", j, err)
		}
		p.zin = append(p.zin, z)
	}
	return p, nil
}

// object is object j: a window of its class's corpus. The windows of
// successive objects are spread over the corpus (hotSpread is coprime
// with the window count), so the most requested objects do not all come
// from the corpus's first piece.
func (p *objectPool) object(j int) []byte {
	c := p.corpora[j%len(classes)]
	slots := (len(c) - hotObjectSize) / hotStride
	off := j / len(classes) * hotSpread % slots * hotStride
	return stamp(c[off:off+hotObjectSize], uint64(j)+1)
}

func (p *objectPool) stream(seed int64) func(uint64) op {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, hotZipfS, 1, hotObjects-1)
	var n int
	return func(uint64) op {
		if n++; n%hotDecompEvery == 0 {
			k := rng.Intn(len(p.zin))
			return op{decompress: true, idx: k, dict: classes[k%len(classes)].name}
		}
		j := int(zipf.Uint64())
		o := op{idx: j}
		if rng.Intn(2) == 0 {
			o.dict = classes[j%len(classes)].name
		}
		return o
	}
}

func (p *objectPool) build(o op) []byte {
	if o.decompress {
		return p.zin[o.idx]
	}
	return p.object(o.idx)
}

func (p *objectPool) check(o op, resp []byte) error {
	if o.decompress {
		return equalBytes(resp, p.object(o.idx))
	}
	return checkZlib(resp, p.dicts[o.dict], p.object(o.idx))
}

func equalBytes(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("got %d bytes that differ from the %d expected", len(got), len(want))
	}
	return nil
}
