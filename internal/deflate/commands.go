package deflate

import (
	"math"

	"lzssfpga/internal/bitio"
	"lzssfpga/internal/token"
)

// ParseCommands decodes a raw Deflate stream into the LZSS command
// stream it encodes — the view a hardware decompressor's copy engine
// consumes. Stored-block bytes become literal commands. It runs the
// inflate core under DefaultDecodeLimits with every symbol recorded as
// a command.
//
// token.Expand(ParseCommands(x)) equals Inflate(x) for every valid x;
// the property is enforced by tests.
func ParseCommands(data []byte) ([]token.Command, error) {
	f := newInflater(bitio.NewReaderBytes(data), DefaultDecodeLimits(), 0)
	f.record = true
	if _, err := f.inflate(nil, math.MaxInt); err != nil {
		return nil, err
	}
	return f.cmds, nil
}
