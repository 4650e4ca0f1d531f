package bench

import (
	"fmt"
	"strings"

	"ensemble/internal/layers"
)

// WireTable reports what the wire-format ladder buys, mode by mode:
// immediate single-sub frames (no coalescing), classic batched frames,
// 0xB9 delta frames with chaining off (every frame an anchor), and
// chained 0xB9 delta frames with the adaptive flush controller — the
// member default. The figure of merit
// is bytes on the wire per application message during the data phase
// (see NetThroughput.BytesPerMsg for the measurement window); the
// workload is the compression gate's — an 8-member MACH group casting
// minimum-size (header-dominated) messages over a 10-layer stack.
//
// Beyond bytes/msg and the coalescing factor, the table breaks down
// where cross-frame chaining wins: `xdelta-1st` is the share of frames
// whose FIRST sub rode the previous frame's base instead of a full
// header (with chaining off it always pays full price there), and the
// flush columns attribute every emitted frame batch to its cause —
// size-limit, entry-end, or barrier — plus the frames the adaptive
// controller held back at a flush point it chose to skip.
func WireTable(rounds int) (string, error) {
	return WireTableAt(8, rounds)
}

// WireTableAt is WireTable at an arbitrary group size — the
// EXPERIMENTS.md bytes-on-wire tables run it at 8 and 64 members.
func WireTableAt(members, rounds int) (string, error) {
	const size, seed, workers = 8, 7, 1
	var b strings.Builder
	fmt.Fprintf(&b, "Bytes on the wire per message (%d-member MACH cast workload, 10-layer stack, %d rounds)\n",
		members, rounds)
	fmt.Fprintf(&b, "%-15s %10s %10s %10s %10s %22s %6s\n",
		"mode", "bytes/msg", "subs/frame", "msgs/sec", "xdelta-1st", "flushes(sz/entry/barr)", "holds")
	var perMode [4]NetThroughput
	for _, mode := range []BatchMode{Immediate, Batched, BatchedDelta, BatchedCross} {
		nt, err := MeasureNetThroughput(MACH, layers.Stack10(), members, size, rounds, seed, workers, mode)
		if err != nil {
			return "", err
		}
		perMode[mode] = nt
		bs := nt.Batch
		firstShare := "-"
		if tot := bs.XFirstFull + bs.XFirstDelta; tot > 0 {
			firstShare = fmt.Sprintf("%.0f%%", float64(bs.XFirstDelta)/float64(tot)*100)
		}
		fmt.Fprintf(&b, "%-15s %10.2f %10.2f %10.0f %10s %22s %6d\n",
			mode.String(), nt.BytesPerMsg, nt.SubsPerFrame, nt.MsgsPerSec, firstShare,
			fmt.Sprintf("%d/%d/%d", bs.SizeFlushes, bs.EntryEndFlushes, bs.BarrierFlushes),
			bs.Holds)
	}
	if classic := perMode[Batched].BytesPerMsg; classic > 0 {
		fmt.Fprintf(&b, "delta vs batched:  %+.1f%% bytes/msg\n",
			(perMode[BatchedDelta].BytesPerMsg/classic-1)*100)
		fmt.Fprintf(&b, "xframe vs batched: %+.1f%% bytes/msg\n",
			(perMode[BatchedCross].BytesPerMsg/classic-1)*100)
	}
	return b.String(), nil
}
