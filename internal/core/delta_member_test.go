package core

import (
	"fmt"
	"testing"

	"ensemble/internal/layers"
	"ensemble/internal/netsim"
	"ensemble/internal/stack"
)

// Members enable delta frame compression by default; these tests pin
// down that the compressed (0xC0) wire images the bypass engine emits
// actually ride the wire delta-encoded and come back byte-exact.

// TestMemberDeltaFramesOnWire: an optimized (MACH-config) group casts a
// stream; the batchers report delta-encoded sub-packets, every cast is
// delivered, and nothing lands in stray accounting — i.e. the delta
// round trip is lossless end to end, protocol included.
func TestMemberDeltaFramesOnWire(t *testing.T) {
	const members, msgs = 4, 32
	delivered := make([]int, members)
	g, err := NewOptimizedClusterGroup(members, netsim.Profile{Latency: 50_000}, 11,
		layers.Stack10(), stack.Func, func(rank int) Handlers {
			return Handlers{OnCast: func(int, []byte) { delivered[rank]++ }}
		})
	if err != nil {
		t.Fatal(err)
	}
	// Casts go out in bursts of four per entry so frames carry several
	// sub-packets — the shape batching exists for.
	for i := 0; i < msgs; i += 4 {
		for r := range g.Members {
			r, m := r, g.Members[r]
			base := i
			g.Do(r, int64(i)*1e6, func() {
				for k := 0; k < 4; k++ {
					m.Cast([]byte(fmt.Sprintf("m%d-%d", r, base+k)))
				}
			})
		}
	}
	g.Run(int64(10e9))

	want := msgs * members // total order includes the member's own casts
	for r, m := range g.Members {
		if delivered[r] != want {
			t.Fatalf("member %d delivered %d casts, want %d", r, delivered[r], want)
		}
		bs := m.Batcher().Stats()
		if bs.XFrames == 0 {
			t.Fatalf("member %d: no delta frames sent (delta not on by default?)", r)
		}
		if bs.DeltaSubs == 0 {
			t.Fatalf("member %d: no sub-packets were delta-encoded (SubPackets=%d)", r, bs.SubPackets)
		}
		if st := m.Stats(); st.StrayPackets != 0 {
			t.Fatalf("member %d: %d stray packets under delta framing", r, st.StrayPackets)
		}
	}
}

// TestMemberDeltaAblationEquivalent: the same seeded workload delivers
// the same messages with delta compression on and off — the format is
// transparent to the protocol — while the delta run puts fewer bytes on
// the wire during the cast phase. (Bytes are snapshotted in a virtual-
// time window just past the casts: over a long tail the periodic
// sweep/gossip wires — full format, so they cost delta's flag byte and
// save nothing — would dilute what compression does to data traffic.)
func TestMemberDeltaAblationEquivalent(t *testing.T) {
	run := func(delta bool) ([]int, int64) {
		const members, msgs = 3, 20
		delivered := make([]int, members)
		g, err := NewOptimizedClusterGroup(members, netsim.Lossy(0.1), 23,
			layers.Stack10(), stack.Func, func(rank int) Handlers {
				return Handlers{OnCast: func(int, []byte) { delivered[rank]++ }}
			})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range g.Members {
			if !delta {
				m.Batcher().DisableDelta()
			}
		}
		for i := 0; i < msgs; i += 4 {
			for r := range g.Members {
				r, m := r, g.Members[r]
				base := i
				g.Do(r, int64(i)*1e6, func() {
					for k := 0; k < 4; k++ {
						m.Cast([]byte(fmt.Sprintf("m%d-%d", r, base+k)))
					}
				})
			}
		}
		var castPhaseBytes int64
		g.Cluster.AtVirtual(int64(500e6), func() {
			castPhaseBytes = g.Cluster.Net().Stats().BytesOnWire
		})
		g.Run(int64(15e9))
		return delivered, castPhaseBytes
	}
	withDelta, deltaBytes := run(true)
	without, classicBytes := run(false)
	for r := range withDelta {
		if withDelta[r] != without[r] || withDelta[r] == 0 {
			t.Fatalf("member %d: delivered %d with delta, %d without", r, withDelta[r], without[r])
		}
	}
	if deltaBytes >= classicBytes {
		t.Fatalf("delta run put %d bytes on the wire, classic %d — compression bought nothing", deltaBytes, classicBytes)
	}
}
