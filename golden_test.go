package lzssfpga

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"lzssfpga/internal/cache/dict"
	"lzssfpga/internal/workload"
)

// goldenStream compresses data through the streaming writer, fed in
// 64 KiB writes.
func goldenStream(data []byte, p Params) ([]byte, error) {
	const chunk = 64 << 10
	var buf bytes.Buffer
	w, err := NewWriter(&buf, p)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(data); i += chunk {
		if _, err := w.Write(data[i:min(i+chunk, len(data))]); err != nil {
			return nil, err
		}
	}
	err = w.Close()
	return buf.Bytes(), err
}

// goldenSyncStream is goldenStream with a sync flush after every write.
func goldenSyncStream(data []byte, p Params) ([]byte, error) {
	const chunk = 64 << 10
	var buf bytes.Buffer
	w, err := NewWriter(&buf, p)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(data); i += chunk {
		if _, err := w.Write(data[i:min(i+chunk, len(data))]); err != nil {
			return nil, err
		}
		if err := w.Flush(); err != nil {
			return nil, err
		}
	}
	err = w.Close()
	return buf.Bytes(), err
}

// Golden digests pin the exact output bytes of the compression paths
// for fixed corpora. The format is deterministic by design (no
// timestamps, no map iteration, no randomness), so any digest change
// means either an intentional format/matcher change — update the table
// and say so in the commit — or an accidental regression. The streaming
// and parallel rows run the same matcher as Compress through their own
// front ends (sliding buffer; 64 KiB segments, with and without
// dictionary carry-over, against the corpus's built-in preset
// dictionary), so a change to how a front end drives the matcher shows
// up here even when the one-shot rows stay put. The resilient and sink
// rows pin the hardened and streaming parallel paths to the parallel
// rows' bytes. The split, dict, gzip and sync-flush stream rows pin the
// remaining encoder policies: adaptive block splitting (Mixed keeps
// several blocks), the serial preset-dictionary path, the gzip
// container, and BestDeflate's stored branch (Random).
func TestGoldenOutputs(t *testing.T) {
	type golden struct {
		name string
		gen  workload.Generator
		n    int
		mode string
		p    Params
		size int
		sha8 string
	}
	hw, fast := HWSpeedParams(), SWFastParams()
	cases := []golden{
		{"wiki", workload.Wiki, 200000, "fixed", hw, 116363, "ec664ae3ea6ba8c0"},
		{"wiki", workload.Wiki, 200000, "best", hw, 88190, "e0aef3e7ae37fb69"},
		{"can", workload.CAN, 200000, "fixed", hw, 123695, "39720c0aa492adea"},
		{"can", workload.CAN, 200000, "best", hw, 107392, "f3a123d4368b80a9"},
		{"wiki", workload.Wiki, 200000, "stream", hw, 88251, "30e6a1b969ede92d"},
		{"can", workload.CAN, 200000, "stream", hw, 107377, "bd52cfdc58918ed5"},
		{"wiki", workload.Wiki, 200000, "stream", fast, 85253, "f589c8e6d8750270"},
		{"can", workload.CAN, 200000, "stream", fast, 108583, "4789851ab8d5c711"},
		{"wiki", workload.Wiki, 200000, "parallel", hw, 88735, "b68128a45586b4e3"},
		{"can", workload.CAN, 200000, "parallel", hw, 107784, "ff0ff6bc25fff702"},
		{"wiki", workload.Wiki, 200000, "parallel", fast, 85617, "b165a8c3c482539f"},
		{"can", workload.CAN, 200000, "parallel", fast, 108999, "3358d60dc182047d"},
		{"wiki", workload.Wiki, 200000, "pdict", hw, 88311, "f399185bcea686d0"},
		{"can", workload.CAN, 200000, "pdict", hw, 107405, "316777c8b41fff3a"},
		{"wiki", workload.Wiki, 200000, "pdict", fast, 85262, "f95355a699edaf6e"},
		{"can", workload.CAN, 200000, "pdict", fast, 108657, "944c30832c2e66cb"},
		{"wiki", workload.Wiki, 200000, "preset", hw, 88204, "da3834acc5900f10"},
		{"can", workload.CAN, 200000, "preset", hw, 107401, "c35a6c34deecf1d4"},
		{"wiki", workload.Wiki, 200000, "preset", fast, 85156, "825b4060f5980bae"},
		{"can", workload.CAN, 200000, "preset", fast, 108656, "9c225f632ae9d16e"},
		{"wiki", workload.Wiki, 200000, "resilient", hw, 88735, "b68128a45586b4e3"},
		{"can", workload.CAN, 200000, "resilient", hw, 107784, "ff0ff6bc25fff702"},
		{"wiki", workload.Wiki, 200000, "resilient", fast, 85617, "b165a8c3c482539f"},
		{"can", workload.CAN, 200000, "resilient", fast, 108999, "3358d60dc182047d"},
		{"wiki", workload.Wiki, 200000, "sink", hw, 88735, "b68128a45586b4e3"},
		{"can", workload.CAN, 200000, "sink", hw, 107784, "ff0ff6bc25fff702"},
		{"wiki", workload.Wiki, 200000, "sink", fast, 85617, "b165a8c3c482539f"},
		{"can", workload.CAN, 200000, "sink", fast, 108999, "3358d60dc182047d"},
		{"wiki", workload.Wiki, 200000, "split", hw, 88190, "e0aef3e7ae37fb69"},
		{"can", workload.CAN, 200000, "split", hw, 107366, "841cbe18cc4b7407"},
		{"mixed", workload.Mixed, 200000, "split", hw, 75240, "759aab3beb4542dd"},
		{"wiki", workload.Wiki, 200000, "dict", hw, 116252, "43b1f674cc4658f6"},
		{"can", workload.CAN, 200000, "dict", hw, 123693, "79aba922454c63a4"},
		{"wiki", workload.Wiki, 200000, "gzip", hw, 88202, "b6f185fb0b9c4057"},
		{"random", workload.Random, 200000, "best", hw, 200026, "785d39a38b85230b"},
		{"wiki", workload.Wiki, 200000, "syncstream", hw, 88368, "2264a33475d72766"},
	}
	parallel := func(data []byte, p Params, o ParallelOpts) ([]byte, error) {
		o.Segment, o.Workers = 64<<10, 2
		z, _, err := CompressParallelOpts(context.Background(), data, p, o)
		return z, err
	}
	for _, c := range cases {
		data := c.gen(c.n, 1)
		var z []byte
		var err error
		switch c.mode {
		case "fixed":
			z, err = Compress(data, c.p)
		case "best":
			z, err = CompressBest(data, c.p)
		case "stream":
			z, err = goldenStream(data, c.p)
		case "syncstream":
			z, err = goldenSyncStream(data, c.p)
		case "split":
			z, err = CompressSplit(data, c.p)
		case "dict":
			var d []byte
			if d, err = dict.Builtin(c.name); err == nil {
				z, err = CompressDict(data, d, c.p)
			}
		case "gzip":
			z, err = GzipCompress(data, c.p, "")
		case "parallel":
			z, err = CompressParallel(data, c.p, 64<<10, 2)
		case "pdict":
			z, err = parallel(data, c.p, ParallelOpts{Carry: true})
		case "preset":
			var d []byte
			if d, err = dict.Builtin(c.name); err == nil {
				z, err = parallel(data, c.p, ParallelOpts{Dict: d})
			}
		case "resilient":
			z, err = parallel(data, c.p, ParallelOpts{Resilient: true})
		case "sink":
			var buf bytes.Buffer
			_, err = parallel(data, c.p, ParallelOpts{Sink: &buf})
			z = buf.Bytes()
		default:
			t.Fatalf("unknown mode %q", c.mode)
		}
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(z)
		got := hex.EncodeToString(sum[:8])
		if len(z) != c.size || got != c.sha8 {
			t.Errorf("%s (%s, %s): len=%d sha=%s, golden len=%d sha=%s",
				c.name, c.mode, c.p.Tier(), len(z), got, c.size, c.sha8)
		}
	}
}
