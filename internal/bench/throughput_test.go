package bench

import (
	"fmt"
	"testing"

	"ensemble/internal/layers"
)

// TestThroughputRunnerModes drives the two-member pair of every
// configuration through every wire mode the runner supports, observed
// and not, and checks each run delivered every round over the frame
// format its mode names.
func TestThroughputRunnerModes(t *testing.T) {
	const rounds = 300
	for _, cfg := range []Config{IMP, FUNC, MACH, HAND} {
		names := layers.Stack10()
		if cfg == HAND {
			names = layers.Stack4()
		}
		for _, observed := range []bool{false, true} {
			if _, err := NewThroughputRunner(cfg, names, 4, BatchedCross, observed); err == nil {
				t.Errorf("%s observed=%t: BatchedCross accepted without an adaptive-flush clock", cfg, observed)
			}
			for _, mode := range []BatchMode{Immediate, Batched, BatchedDelta} {
				t.Run(fmt.Sprintf("%s/%s/obs=%t", cfg, mode, observed), func(t *testing.T) {
					r, err := NewThroughputRunner(cfg, names, 4, mode, observed)
					if err != nil {
						t.Fatal(err)
					}
					r.Run(rounds)
					if got := r.Delivered(); got < rounds {
						t.Fatalf("%d rounds but only %d deliveries", rounds, got)
					}
					bs := r.BatchStats()
					switch mode {
					case Immediate:
						if bs.Frames != 0 {
							t.Errorf("unbatched run emitted %d frames", bs.Frames)
						}
					case Batched:
						if bs.Frames == 0 || bs.XFrames != 0 {
							t.Errorf("classic run: %d frames, %d delta frames", bs.Frames, bs.XFrames)
						}
					case BatchedDelta:
						if bs.XFrames == 0 || bs.XFirstDelta != 0 {
							t.Errorf("delta run: %d delta frames, %d chained", bs.XFrames, bs.XFirstDelta)
						}
					}
					if observed && r.FlightRecorder().Track(0).Total() == 0 {
						t.Error("observed run recorded nothing")
					}
				})
			}
		}
	}
}
