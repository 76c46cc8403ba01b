package lzss

import (
	"lzssfpga/internal/token"
)

// CompressWithDict compresses data with a preset dictionary: the
// matcher is pre-loaded with dict as if it had just been processed, so
// early matches can reach back into it. For an embedded logger whose
// records share boilerplate (the paper's motivating workload), a preset
// dictionary recovers the ratio that short blocks otherwise lose while
// the window warms up.
//
// Distances in the returned commands may exceed the number of produced
// bytes — they reach into the dictionary; replay them with
// token.ExpandWithHistory(dict, cmds).
func CompressWithDict(dict, data []byte, p Params) ([]token.Command, *Stats, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if len(dict) == 0 {
		return Compress(data, p)
	}
	// Only the last window-1 bytes of the dictionary are reachable.
	if max := p.Window - 1; len(dict) > max {
		dict = dict[len(dict)-max:]
	}
	buf := make([]byte, 0, len(dict)+len(data))
	buf = append(buf, dict...)
	buf = append(buf, data...)
	stats := &Stats{}
	m, err := NewMatcher(buf, p, stats)
	if err != nil {
		return nil, nil, err
	}
	// Warming the chains with every dictionary position is zlib's
	// deflateSetDictionary; CompressTail does exactly that.
	cmds := CompressTail(nil, m, buf, len(dict))
	return cmds, stats, nil
}
