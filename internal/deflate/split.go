package deflate

import (
	"lzssfpga/internal/token"
)

// Block splitting: per-block Huffman tables only pay off when the
// blocks' symbol statistics actually differ. SplitDeflate cuts the
// command stream into candidate blocks, greedily merges neighbours
// whenever one shared table is cheaper than two separate ones (header
// included), and emits each surviving block in its cheapest format.
// On homogeneous data it converges to a single block; on shifting data
// (text followed by binary followed by noise) it keeps the boundaries
// and beats any single-table encoding.

// splitCandidateCommands is the initial cut granularity.
const splitCandidateCommands = 8192

// SplitDeflate encodes cmds as a sequence of statistically coherent
// blocks and returns the raw Deflate stream.
func SplitDeflate(cmds []token.Command) ([]byte, error) {
	return splitDeflate(bodyBuf(nil, cmds), cmds)
}

// splitDeflate returns dst followed by the split blocks of cmds, padded
// to a byte boundary. A block's cost is its size as the cheaper of
// fixed and dynamic, header included; stored is left to callers that
// know the raw bytes.
func splitDeflate(dst []byte, cmds []token.Command) ([]byte, error) {
	var w blockWriter
	cost := func(cmds []token.Command) (int, error) {
		_, n, err := w.choose(cmds, 0, fixedOrDynamic)
		return n, err
	}
	// Initial candidate boundaries; an empty stream is one empty block.
	bounds := []int{0}
	for i := splitCandidateCommands; i < len(cmds); i += splitCandidateCommands {
		bounds = append(bounds, i)
	}
	bounds = append(bounds, len(cmds))
	costs := make([]int, len(bounds)-1)
	for i := range costs {
		var err error
		if costs[i], err = cost(cmds[bounds[i]:bounds[i+1]]); err != nil {
			return nil, err
		}
	}
	// Greedy neighbour merging: accept any merge that does not lose.
	for {
		merged := false
		for i := 0; i+1 < len(costs); i++ {
			joint, err := cost(cmds[bounds[i]:bounds[i+2]])
			if err != nil {
				return nil, err
			}
			if joint <= costs[i]+costs[i+1] {
				bounds = append(bounds[:i+1], bounds[i+2:]...)
				costs[i] = joint
				costs = append(costs[:i+1], costs[i+2:]...)
				merged = true
			}
		}
		if !merged {
			break
		}
	}
	w.bw.Reset(dst)
	for i := 0; i+1 < len(bounds); i++ {
		if err := w.writeBlock(cmds[bounds[i]:bounds[i+1]], nil, fixedOrDynamic, i+2 == len(bounds)); err != nil {
			return nil, err
		}
	}
	w.bw.AlignByte()
	return w.bw.Drain(), nil
}

// ZlibCompressSplit wraps SplitDeflate in the zlib container.
func ZlibCompressSplit(cmds []token.Command, src []byte, window int) ([]byte, error) {
	hdr, err := ZlibHeader(window)
	if err != nil {
		return nil, err
	}
	out, err := splitDeflate(bodyBuf(hdr[:], cmds), cmds)
	if err != nil {
		return nil, err
	}
	return appendAdler(out, src), nil
}
