package bench

import "testing"

// TestUDPThroughputSmoke runs the loopback harness small in every mode:
// all wires arrive, the socket stays clean, and the batched modes put
// fewer bytes per message on the wire than the immediate ablation.
// BatchedCross, which needs an adaptive-flush clock, is refused.
func TestUDPThroughputSmoke(t *testing.T) {
	if _, err := MeasureUDPThroughput(200, 8, 8, BatchedCross); err == nil {
		t.Fatal("BatchedCross accepted: the harness would run classic frames under the xframe label")
	}
	perMode := map[BatchMode]UDPThroughput{}
	for _, mode := range []BatchMode{Immediate, Batched, BatchedDelta} {
		res, err := MeasureUDPThroughput(200, 8, 8, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Net.Datagrams == 0 || res.BytesPerMsg <= 0 {
			t.Fatalf("%v: empty socket accounting: %+v", mode, res)
		}
		perMode[mode] = res
	}
	if im, ba := perMode[Immediate], perMode[Batched]; ba.Net.Datagrams >= im.Net.Datagrams {
		t.Fatalf("batching sent %d datagrams, immediate %d — no syscall coalescing",
			ba.Net.Datagrams, im.Net.Datagrams)
	}
	if ba, de := perMode[Batched], perMode[BatchedDelta]; de.BytesPerMsg >= ba.BytesPerMsg {
		t.Fatalf("delta bytes/msg %.2f, classic %.2f — compression bought nothing",
			de.BytesPerMsg, ba.BytesPerMsg)
	}
	if spf := perMode[Batched].SubsPerFrame; spf < 2 {
		t.Fatalf("batched run coalesced only %.2f subs/frame", spf)
	}
}
