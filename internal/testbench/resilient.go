package testbench

import (
	"bytes"
	"context"
	"fmt"

	"lzssfpga/internal/ddr2"
	"lzssfpga/internal/deflate"
	"lzssfpga/internal/etherlink"
	"lzssfpga/internal/faultinject"
	"lzssfpga/internal/resilience"
)

// ResilientRunResult is FullRunResult plus the recovery ledger of a run
// through a faulty platform: what the ARQ, the staging scrub, the
// panic-safe compressor and the return-path decode each had to absorb.
type ResilientRunResult struct {
	FullRunResult
	// Transfer aggregates both ARQ directions.
	Transfer resilience.TransferStats
	// Compress is the parallel compressor's recovery report.
	Compress deflate.ResilienceReport
	// StagingRewrites counts DDR2 re-stagings after a failed CRC scrub;
	// ReturnRetries counts return-path re-transfers after a corrupted
	// compressed stream failed to decode.
	StagingRewrites int
	ReturnRetries   int
	// Faults is the injector's ledger (zero when inj is nil).
	Faults faultinject.Stats
}

// RunFullResilient is RunFull on a hostile platform: every stage runs
// through its recovery layer, with faults (when inj is non-nil)
// injected at the transfer, memory, worker and stream seams. The loop
// is: ARQ the block in over the faulty link, stage it in DDR2 and scrub
// until the CRC holds, time compression on the modeled core (b.Run,
// unchanged — the cycle model is not where faults live), produce the
// real compressed stream with the panic-safe parallel compressor, ARQ
// it back, and decode-verify the result byte-exactly against the input.
// Every recovery loop is bounded by pol; exhausted budgets surface as
// errors wrapping resilience.ErrBudgetExhausted, and ctx cancellation
// is honored at every stage.
func (b Board) RunFullResilient(ctx context.Context, corpus string, data []byte, link etherlink.Link,
	inj *faultinject.Injector, pol resilience.Policy) (ResilientRunResult, error) {
	var out ResilientRunResult
	var ch resilience.Channel = resilience.PerfectChannel{}
	if inj != nil {
		ch = inj
	}

	// Ethernet in, reliably.
	staged, inStats, err := resilience.Transfer(ctx, data, ch, pol)
	if err != nil {
		return out, fmt.Errorf("testbench: inbound transfer: %w", err)
	}
	out.Transfer.Add(inStats)

	// DDR2 staging with CRC scrub: the bit flips a block accumulates
	// during its DRAM residency are injected once, detected by Verify,
	// and repaired by re-staging the received block. (Per-verify
	// re-injection would model memory that corrupts faster than it can
	// be read — unrecoverable by construction.)
	st := ddr2.NewStaging(staged)
	if inj != nil {
		inj.CorruptMemory(st.Bytes())
	}
	for {
		if err := st.Verify(); err == nil {
			break
		}
		if out.StagingRewrites >= pol.MaxRetries {
			return out, fmt.Errorf("testbench: staging scrub after %d rewrites: %w",
				out.StagingRewrites, resilience.ErrBudgetExhausted)
		}
		if err := ctx.Err(); err != nil {
			return out, err
		}
		out.StagingRewrites++
		st.Rewrite(staged)
	}

	// Timed compression on the modeled core (the paper's measurement).
	res, err := b.Run(corpus, st.Bytes())
	if err != nil {
		return out, err
	}
	out.FullRunResult = FullRunResult{
		RunResult:          res,
		EthernetInSeconds:  link.TransferSeconds(data),
		CompressionSeconds: float64(res.HWStats.TotalCycles()) / b.HW.ClockHz,
	}

	// The real compressed stream, produced panic-safely. The resilient
	// loop cuts finer segments than the throughput-oriented default so
	// worker-level faults and their recovery are exercised even on the
	// small blocks integration tests use.
	popts := deflate.ParallelOpts{Segment: 16 << 10, Resilient: true, MaxSegmentRetries: pol.MaxRetries}
	if inj != nil {
		popts.SegmentHook = inj.SegmentHook
		popts.SegmentTimeout = inj.Spec().StallTimeout()
	}
	z, rep, err := deflate.ParallelCompress(ctx, st.Bytes(), b.HW.Match, popts)
	if err != nil {
		return out, fmt.Errorf("testbench: resilient compress: %w", err)
	}
	out.Compress = rep

	// Ethernet out + decode verification. Corruption injected past the
	// ARQ layer (the "storage" fault class) is caught by the hardened
	// decoder and repaired by re-transfer.
	for {
		back, outStats, err := resilience.Transfer(ctx, z, ch, pol)
		out.Transfer.Add(outStats)
		if err != nil {
			return out, fmt.Errorf("testbench: return transfer: %w", err)
		}
		if inj != nil {
			back = inj.CorruptStream(back)
		}
		dec, err := deflate.ZlibDecompressLimited(back, deflate.DecodeLimits{
			MaxOutputBytes: len(data), MaxBlocks: 1 << 20,
		})
		if err == nil && bytes.Equal(dec, data) {
			break
		}
		if out.ReturnRetries >= pol.MaxRetries {
			return out, fmt.Errorf("testbench: return stream verification after %d retries (%v): %w",
				out.ReturnRetries, err, resilience.ErrBudgetExhausted)
		}
		if cerr := ctx.Err(); cerr != nil {
			return out, cerr
		}
		out.ReturnRetries++
	}
	out.EthernetOutSeconds = link.TransferSeconds(z)
	if inj != nil {
		out.Faults = inj.Stats()
	}
	return out, nil
}
