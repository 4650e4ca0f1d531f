package bench

import (
	"testing"

	"ensemble/internal/layers"
	"ensemble/internal/netsim"
)

// TestRunGroupOwedDeliveries: runGroup's expected count is what
// the scheduled submissions owe — every cast at every member, every
// send at its target — so a loss-free run reports none missing, flat or
// hierarchical.
func TestRunGroupOwedDeliveries(t *testing.T) {
	flat := groupSpec{
		members: 4, names: layers.StackFifo(), cfg: FUNC, profile: netsim.Ethernet100(), seed: 3,
		mode: BatchedCross, rounds: 3, interval: roundInterval, until: int64(1e9),
		submit: func(run *groupRun, r, i int, at int64) {
			run.send(r, at, (r+1)%4, []byte{byte(i)})
			if r == i {
				run.cast(r, at, []byte{byte(r)})
			}
		},
	}
	hier := scaleSpec(0, 2, 3, 5)
	hier.rounds, hier.submit, hier.until = 2, castFrom(8, 2), int64(2e9)
	for name, spec := range map[string]groupSpec{"flat": flat, "hier": hier} {
		t.Run(name, func(t *testing.T) {
			run, err := runGroup(spec)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]int{"flat": 4*3 + 3*4, "hier": 2 * 2 * 6}[name]
			if run.expected != want || run.Delivered != want || run.missing != 0 {
				t.Fatalf("expected %d, delivered %d, missing %d; want %d owed and delivered",
					run.expected, run.Delivered, run.missing, want)
			}
		})
	}
}

// TestDeterministicGates holds bench-gate's deterministic Gates 2, 3
// and 5 as assertions, on bench-gate's exact configurations and bars:
// the seeded netsim reproduces every figure exactly, so the gates need
// no benchmark run and carry no noise.
func TestDeterministicGates(t *testing.T) {
	// Gates 2 and 3: the 8-member MACH cast workload (10-layer stack,
	// 8-byte casts, 150 rounds, seed 29, sequential) coalesces >= 2 subs
	// per frame at every batched rung, and the member default's
	// cross-frame delta at least halves the classic format's bytes/msg.
	var bytesPerMsg [BatchedCross + 1]float64
	for _, mode := range []BatchMode{Batched, BatchedDelta, BatchedCross} {
		res, err := MeasureNetThroughput(MACH, layers.Stack10(), 8, 8, 150, 29, 1, mode)
		if err != nil {
			t.Fatal(err)
		}
		if res.SubsPerFrame < 2 {
			t.Errorf("Gate 2: %s coalesced %.3f subs/frame, want >= 2", mode, res.SubsPerFrame)
		}
		bytesPerMsg[mode] = res.BytesPerMsg
		t.Logf("%s: %.2f bytes/msg, %.3f subs/frame", mode, res.BytesPerMsg, res.SubsPerFrame)
	}
	if r := bytesPerMsg[BatchedCross] / bytesPerMsg[Batched]; r > 0.5 {
		t.Errorf("Gate 3: cross/classic bytes/msg %.3f (%.2f vs %.2f), want <= 0.5",
			r, bytesPerMsg[BatchedCross], bytesPerMsg[Batched])
	}

	// Gate 5: on the mixed workload (5 members, 600 rounds, seed 42) the
	// multi-CCP family's interpreted share is at most half the
	// single-CCP baseline's, and it compresses control traffic.
	single, err := MeasureMixedTraffic(5, 600, false, 42)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := MeasureMixedTraffic(5, 600, true, 42)
	if err != nil {
		t.Fatal(err)
	}
	if r := multi.InterpShare() / single.InterpShare(); r > 0.5 {
		t.Errorf("Gate 5: multi/single interp-share %.3f (%.4f vs %.4f), want <= 0.5",
			r, multi.InterpShare(), single.InterpShare())
	}
	if multi.CtrlCompressed == 0 {
		t.Error("Gate 5: the multi-CCP run compressed no control traffic")
	}
	t.Logf("interp-share %.4f -> %.4f, ctrl-compressed %d, missing %d/%d",
		single.InterpShare(), multi.InterpShare(), multi.CtrlCompressed, single.Missing, multi.Missing)
}
