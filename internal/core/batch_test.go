package core

// Wire-batching tests at the group-runtime level: members emit framed
// (coalesced) data packets, the network substrates unpack them, and
// malformed framing lands in the same stray-packet accounting as any
// other garbage (mirroring malformed_test.go).

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"ensemble/internal/event"
	"ensemble/internal/layers"
	"ensemble/internal/netsim"
	"ensemble/internal/stack"
	"ensemble/internal/transport"
)

func appendSub(frame, sub []byte) []byte {
	frame = binary.AppendUvarint(frame, uint64(len(sub)))
	return append(frame, sub...)
}

// TestBatchedFrameStrayEdgeCases: a frame whose sub-packets are
// malformed — or whose framing itself is malformed (truncated length
// prefix, zero-length sub, declared length overrunning the buffer) —
// must surface as stray packets at the member, never panic, never
// disturb clean traffic.
func TestBatchedFrameStrayEdgeCases(t *testing.T) {
	for _, optimized := range []bool{false, true} {
		name := "stack"
		if optimized {
			name = "optimized"
		}
		t.Run(name, func(t *testing.T) {
			var g *ClusterGroup
			var err error
			if optimized {
				g, err = NewOptimizedClusterGroup(2, netsim.Profile{Latency: 1000}, 3, layers.Stack10(), stack.Func, nil)
			} else {
				g, err = NewClusterGroup(2, netsim.Profile{Latency: 1000}, 3, layers.Stack10(), stack.Imp, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
			m := g.Members[0]
			rogue := g.Cluster.NewEndpoint(99)
			garbage := appendUvarint(nil, 99) // wrong epoch
			cases := []struct {
				name   string
				frame  []byte
				strays int64
			}{
				{"two-garbage-subs",
					appendSub(appendSub([]byte{transport.FrameMagic}, garbage), garbage), 2},
				{"zero-length-sub",
					appendSub([]byte{transport.FrameMagic}, nil), 1},
				{"truncated-length-prefix",
					append(appendSub([]byte{transport.FrameMagic}, garbage), 0x80), 2},
				{"overflowing-length-prefix",
					append([]byte{transport.FrameMagic}, bytes.Repeat([]byte{0x80}, 11)...), 1},
				{"declared-length-overrun",
					append(binary.AppendUvarint([]byte{transport.FrameMagic}, 100), 1, 2, 3), 1},
				{"magic-only", []byte{transport.FrameMagic}, 0},
			}
			for _, tc := range cases {
				before := m.Stats().StrayPackets
				rogue.Send(99, m.addr, tc.frame)
				g.Run(int64(1e7))
				if got := m.Stats().StrayPackets - before; got != tc.strays {
					t.Errorf("%s: %d new strays, want %d", tc.name, got, tc.strays)
				}
			}
			// The member is still live after the garbage.
			g.Do(0, 0, func() { m.Cast([]byte("still alive")) })
			g.Run(int64(1e8))
			if g.Members[1].Stats().CastsDelivered == 0 {
				t.Fatal("member stopped delivering after malformed frames")
			}
		})
	}
}

// legacyDeltaFrames are packets in the retired intra-frame delta format
// (magic 0xB8) an old-build peer would still send: a full-sub frame and
// the bare magic. Neither is a frame any more, and no 0xB8-led packet
// parses as a live epoch (the continuation bit forces epoch >= 56 or a
// truncated prefix).
var legacyDeltaFrames = [][]byte{
	{0xB8, 0x00, 0x05, 0x01, 0x01, 0xC0, 0x07, 0x00},
	{0xB8},
}

// TestLegacyDeltaFrameIsStray: a retired-format (0xB8) packet reaches the
// member raw on both substrates — the netsim cluster and UDPNet — lands
// in stray accounting, and panics nowhere.
func TestLegacyDeltaFrameIsStray(t *testing.T) {
	want := int64(len(legacyDeltaFrames))
	t.Run("netsim", func(t *testing.T) {
		g, err := NewOptimizedClusterGroup(2, netsim.Profile{Latency: 1000}, 3, layers.Stack10(), stack.Func, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := g.Members[0]
		rogue := g.Cluster.NewEndpoint(99)
		for _, pkt := range legacyDeltaFrames {
			rogue.Send(99, m.addr, pkt)
		}
		g.Run(int64(1e7))
		if got := m.Stats().StrayPackets; got != want {
			t.Fatalf("%d strays, want %d", got, want)
		}
		if st := g.Cluster.Net().Stats(); st.Frames != 0 || st.GenMisses != 0 {
			t.Fatalf("legacy packets taken for frames: %+v", st)
		}
	})
	t.Run("udp", func(t *testing.T) {
		if testing.Short() {
			t.Skip("wall-clock test")
		}
		peers := map[event.Addr]string{}
		for _, a := range []event.Addr{1, 2} {
			u, err := netsim.NewUDPNet(a, "127.0.0.1:0", nil)
			if err != nil {
				t.Fatal(err)
			}
			peers[a] = u.LocalAddr()
			u.Close()
		}
		nets := map[event.Addr]*netsim.UDPNet{}
		for _, a := range []event.Addr{1, 2} {
			u, err := netsim.NewUDPNet(a, peers[a], peers)
			if err != nil {
				t.Fatal(err)
			}
			defer u.Close()
			nets[a] = u
		}
		v := event.NewView("legacy", 1, []event.Addr{1, 2}, 0)
		m, err := NewMember(nets[1], nets[1], v, layers.Stack4(), stack.Imp, Handlers{})
		if err != nil {
			t.Fatal(err)
		}
		m.Start()
		go nets[1].Run()
		for _, pkt := range legacyDeltaFrames {
			nets[2].Send(2, 1, pkt)
		}
		strays := func() int64 {
			ch := make(chan int64, 1)
			nets[1].Do(func() { ch <- m.Stats().StrayPackets })
			return <-ch
		}
		waitFor(t, 3*time.Second, "legacy packets counted stray", func() bool { return strays() >= want })
		if got := strays(); got != want {
			t.Fatalf("%d strays, want %d", got, want)
		}
		if st := nets[1].Stats(); st.GenMisses != 0 {
			t.Fatalf("legacy packets taken for frames: %+v", st)
		}
	})
}

// TestPt2ptSweepOneFlushPerPeer: with acknowledgments cut off, every
// housekeeping sweep retransmits the whole unacked window to the peer —
// and the batcher coalesces that burst into exactly one frame per peer
// per sweep. Stack4 keeps the sweep free of stability gossip so the
// only periodic traffic is the pt2pt retransmission burst.
func TestPt2ptSweepOneFlushPerPeer(t *testing.T) {
	g, err := NewClusterGroup(2, netsim.Profile{Latency: 1000}, 5, layers.Stack4(), stack.Imp, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := g.Members[0]
	// Drop everything addressed to member 0: acks never arrive, so its
	// unacked window stays full and every sweep retransmits all of it.
	g.Cluster.Net().SetFilter(func(from, to event.Addr) bool { return to != m.addr })
	const sends = 6
	for i := 0; i < sends; i++ {
		i := i
		g.Do(0, 0, func() {
			if err := m.Send(1, []byte{byte(i)}); err != nil {
				t.Error(err)
			}
		})
	}
	var before, after transport.BatcherStats
	g.Do(0, int64(125e6), func() { before = m.Batcher().Stats() })
	g.Do(0, int64(375e6), func() { after = m.Batcher().Stats() })
	g.Run(int64(400e6))

	flushes := after.Flushes - before.Flushes
	frames := after.Frames - before.Frames
	subs := after.SubPackets - before.SubPackets
	if flushes < 3 {
		t.Fatalf("only %d sweeps in the window", flushes)
	}
	if frames != flushes {
		t.Fatalf("%d frames over %d sweeps — want exactly one frame per peer per sweep", frames, flushes)
	}
	if subs != sends*frames {
		t.Fatalf("%d sub-packets over %d frames, want %d retransmissions per frame", subs, frames, sends)
	}
}

// TestBatcherImmediateModeEquivalent: the immediate-mode ablation (one
// single-sub frame per wire) delivers exactly the same traffic — the
// receivers cannot tell the difference. With the adaptive flush
// controller disabled the delivery *order* is identical too; with it
// enabled, holds re-time frames, so casts can reach the total-order
// sequencer in a different interleaving and the agreed order may
// legitimately differ — delivery then matches as a multiset.
func TestBatcherImmediateModeEquivalent(t *testing.T) {
	run := func(immediate, adaptive bool) []string {
		var log []string
		g, err := NewClusterGroup(3, netsim.Profile{Latency: 1000}, 17, layers.Stack10(), stack.Imp, func(rank int) Handlers {
			return Handlers{OnCast: func(origin int, payload []byte) {
				if rank == 1 {
					log = append(log, fmt.Sprintf("%d:%s", origin, payload))
				}
			}}
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range g.Members {
			if immediate {
				m.Batcher().SetImmediate(true)
			}
			if !adaptive {
				m.Batcher().DisableAdaptiveFlush()
			}
		}
		for i := 0; i < 10; i++ {
			for r, m := range g.Members {
				i, m := i, m
				g.Do(r, 0, func() { m.Cast([]byte{byte('a' + i)}) })
			}
		}
		g.Run(int64(5e9))
		return log
	}
	batched, immediate := run(false, false), run(true, false)
	if fmt.Sprint(batched) != fmt.Sprint(immediate) {
		t.Fatalf("delivery diverges:\nbatched:   %v\nimmediate: %v", batched, immediate)
	}
	if len(batched) == 0 {
		t.Fatal("nothing delivered")
	}
	adaptive := run(false, true)
	want, got := map[string]int{}, map[string]int{}
	for _, x := range batched {
		want[x]++
	}
	for _, x := range adaptive {
		got[x]++
	}
	if len(adaptive) != len(batched) || fmt.Sprint(len(want)) != fmt.Sprint(len(got)) {
		t.Fatalf("adaptive flush changes the delivered set: %d vs %d entries", len(adaptive), len(batched))
	}
	for x, n := range want {
		if got[x] != n {
			t.Fatalf("adaptive flush changes the delivered set at %q: %d vs %d", x, got[x], n)
		}
	}
}
