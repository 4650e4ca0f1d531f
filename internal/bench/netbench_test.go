package bench

import (
	"testing"

	"ensemble/internal/layers"
)

// TestNetThroughputConcurrent is the package's -race exercise: a
// 5-member group runs the full 10-layer stack one-goroutine-per-member
// and must deliver every cast everywhere. The sequential run of the
// same seed must see the same network traffic and deliveries.
func TestNetThroughputConcurrent(t *testing.T) {
	for _, cfg := range []Config{IMP, FUNC, MACH} {
		t.Run(cfg.String(), func(t *testing.T) {
			conc, err := MeasureNetThroughput(cfg, layers.Stack10(), 5, 64, 40, 17, 5, BatchedDelta)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := MeasureNetThroughput(cfg, layers.Stack10(), 5, 64, 40, 17, 1, BatchedDelta)
			if err != nil {
				t.Fatal(err)
			}
			if seq.Net != conc.Net {
				t.Fatalf("sequential and concurrent runs saw different network traffic:\nseq:  %+v\nconc: %+v",
					seq.Net, conc.Net)
			}
			if seq.Delivered != conc.Delivered || seq.VirtualLatency != conc.VirtualLatency {
				t.Fatalf("delivery results diverge: seq %d/%.0fns conc %d/%.0fns",
					seq.Delivered, seq.VirtualLatency, conc.Delivered, conc.VirtualLatency)
			}
			// BatchedDelta is 0xB9 with chaining off: every frame an anchor.
			if bs := seq.Batch; bs.XFrames == 0 || bs.XFirstDelta != 0 || bs.XFirstFull != bs.XFrames {
				t.Fatalf("unchained delta run chained across frames: %+v", bs)
			}
			if conc.VirtualLatency < 80_000 {
				t.Fatalf("virtual latency %.0fns below the 80µs link latency (stamp plumbing broken)",
					conc.VirtualLatency)
			}
		})
	}
}

// TestNetThroughputRejectsBadShapes: unsupported configs and degenerate
// group sizes fail loudly instead of measuring nonsense.
func TestNetThroughputRejectsBadShapes(t *testing.T) {
	if _, err := MeasureNetThroughput(HAND, layers.Stack4(), 4, 8, 4, 1, 1, Immediate); err == nil {
		t.Fatal("HAND has no N-member harness but was accepted")
	}
	if _, err := MeasureNetThroughput(IMP, layers.Stack10(), 1, 8, 4, 1, 1, Immediate); err == nil {
		t.Fatal("1-member group was accepted")
	}
}

// TestNetThroughputBatchedCoalesces: at 8 members with the adaptive
// quantum on, the batched run must actually coalesce — at least two
// sub-packets per frame on average (the PR's acceptance bar) — while
// the immediate-mode ablation stays at exactly one. 150 rounds keeps
// the run data-dominated; the fixed 2 s stability tail is mostly
// lonely gossip frames and would dilute the factor on a short run.
func TestNetThroughputBatchedCoalesces(t *testing.T) {
	batched, err := MeasureNetThroughput(IMP, layers.Stack10(), 8, 64, 150, 29, 1, Batched)
	if err != nil {
		t.Fatal(err)
	}
	if batched.SubsPerFrame < 2 {
		t.Fatalf("batched 8-member run coalesced only %.2f subs/frame, want >= 2", batched.SubsPerFrame)
	}
	ablated, err := MeasureNetThroughput(IMP, layers.Stack10(), 8, 64, 150, 29, 1, Immediate)
	if err != nil {
		t.Fatal(err)
	}
	if ablated.SubsPerFrame != 1 {
		t.Fatalf("immediate-mode ablation shows %.2f subs/frame, want exactly 1", ablated.SubsPerFrame)
	}
	if batched.Delivered != ablated.Delivered {
		t.Fatalf("batching changed deliveries: %d vs %d", batched.Delivered, ablated.Delivered)
	}
}
