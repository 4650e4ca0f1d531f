package netsim

// Regression tests for the delivery bugs the fault-injection substrate
// itself had: buffer aliasing across receivers, vanishing packets in the
// accounting, and the island-0 partition hole. The LossyNetwork is what
// every reliability layer is verified against, so its own correctness is
// load-bearing.

import (
	"fmt"
	"math/rand"
	"testing"

	"ensemble/internal/event"
)

// TestCastReceiversDoNotShareBuffers: transports decode in place, so a
// receiver that mutates its packet must not affect any other receiver.
func TestCastReceiversDoNotShareBuffers(t *testing.T) {
	got := map[event.Addr][]byte{}
	c := attachCluster(1, Profile{Latency: 1000}, func(a event.Addr) func(Packet) {
		return func(p Packet) {
			// Simulate an in-place decode: scribble over the buffer, then
			// record it.
			for i := range p.Data {
				p.Data[i] = byte(a)
			}
			got[a] = p.Data
		}
	}, 1, 2, 3, 4)
	c.Enqueue(0, 0, func() { c.eps[0].Cast(1, []byte{0xAA, 0xAA, 0xAA}) })
	c.Run(int64(1e6))
	if len(got) != 3 {
		t.Fatalf("delivered to %d receivers, want 3", len(got))
	}
	for a, data := range got {
		for _, b := range data {
			if b != byte(a) {
				t.Fatalf("receiver %d's buffer was scribbled by another receiver: % x", a, data)
			}
		}
	}
}

// TestDuplicateDeliveryDoesNotShareBuffer: a DupProb duplicate reaches
// the same endpoint as the original; decoding the first in place must
// not corrupt the second.
func TestDuplicateDeliveryDoesNotShareBuffer(t *testing.T) {
	var seen [][]byte
	c := attachCluster(5, Profile{Latency: 10, DupProb: 1.0}, func(a event.Addr) func(Packet) {
		if a != 2 {
			return nil
		}
		return func(p Packet) {
			cp := append([]byte(nil), p.Data...)
			seen = append(seen, cp)
			for i := range p.Data {
				p.Data[i] = 0xFF // in-place decode scribble
			}
		}
	}, 2, 1)
	c.Enqueue(1, 0, func() { c.eps[1].Send(1, 2, []byte{1, 2, 3}) })
	c.Run(int64(1e6))
	if len(seen) != 2 {
		t.Fatalf("delivered %d copies, want 2 (DupProb=1)", len(seen))
	}
	for i, data := range seen {
		if data[0] != 1 || data[1] != 2 || data[2] != 3 {
			t.Fatalf("delivery %d corrupted by the other copy's decode: % x", i, data)
		}
	}
}

// TestStatsInvariant: after the scheduler drains, every transmission is
// accounted for — Sent + Duplicated == Delivered + Dropped — under
// loss, duplication, partitions, and mid-flight detaches, at one shard
// and across shards. It also pins the detach barrier: a cast committed
// in the same round as a receiver's detach (later in commit order, and
// from another shard when sharded) still fans out to the detaching
// endpoint and drops there; the next round's casts skip it.
func TestStatsInvariant(t *testing.T) {
	profiles := map[string]Profile{
		"perfect":   {Latency: 1000},
		"loss":      {Latency: 1000, LossProb: 0.3},
		"dup":       {Latency: 1000, DupProb: 0.4},
		"loss+dup":  {Latency: 5000, Jitter: 20_000, LossProb: 0.2, DupProb: 0.3},
		"lossmodel": Lossy(0.25),
	}
	for name, profile := range profiles {
		t.Run(name, func(t *testing.T) {
			for _, shards := range []int{1, 3} {
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					statsInvariant(t, profile, shards)
				})
			}
		})
	}
}

func statsInvariant(t *testing.T, profile Profile, shards int) {
	addrs := []event.Addr{1, 2, 3, 4, 5}
	c := attachCluster(11, profile, nil, addrs...)
	c.SetShards(shards)
	n := c.Net()
	rng := rand.New(rand.NewSource(99))
	run := func(d int64) { c.Run(c.Sim().Now() + d) }
	for i := 0; i < 2000; i++ {
		switch i {
		case 500:
			n.Partition([]event.Addr{1, 2}, []event.Addr{3, 4}) // 5 unlisted: isolated
		case 1000:
			n.SetFilter(nil)
		case 1500:
			// In-flight packets to 4 must be counted dropped. Member 5
			// (index 4: after 4 in commit order, and on another shard
			// when sharded) casts in the detach's own round.
			before := n.Stats().Sent
			c.Enqueue(3, 0, func() { c.eps[3].Detach(4) })
			c.Enqueue(4, 0, func() { c.eps[4].Cast(5, []byte("same round")) })
			run(0)
			if got := n.Stats().Sent - before; got != 4 {
				t.Fatalf("same-round cast fanned out to %d endpoints, want 4 (detach applies at the barrier)", got)
			}
			before = n.Stats().Sent
			c.Enqueue(4, 0, func() { c.eps[4].Cast(5, []byte("next round")) })
			run(0)
			if got := n.Stats().Sent - before; got != 3 {
				t.Fatalf("next-round cast fanned out to %d endpoints, want 3 (detached endpoint still listed)", got)
			}
		}
		idx := rng.Intn(len(addrs))
		from, ep := addrs[idx], c.eps[idx]
		if rng.Intn(2) == 0 {
			c.Enqueue(idx, 0, func() { ep.Cast(from, []byte{byte(i)}) })
		} else {
			to := addrs[rng.Intn(len(addrs))]
			if to != from {
				c.Enqueue(idx, 0, func() { ep.Send(from, to, []byte{byte(i)}) })
			}
		}
		run(int64(rng.Intn(3000)))
	}
	run(int64(1e12)) // drain everything in flight
	if _, pending := c.nextEventTime(); pending {
		t.Fatal("scheduler not drained")
	}
	st := n.Stats()
	if st.Delivered+st.Dropped != st.Sent+st.Duplicated {
		t.Fatalf("accounting leak: Sent=%d Dup=%d Delivered=%d Dropped=%d (missing %d)",
			st.Sent, st.Duplicated, st.Delivered, st.Dropped,
			st.Sent+st.Duplicated-st.Delivered-st.Dropped)
	}
	if st.Sent == 0 || st.Delivered == 0 {
		t.Fatalf("degenerate run: %+v", st)
	}
}

// TestPartitionUnlistedIsolated: endpoints not named in any island are
// isolated — they reach no one, and crucially not each other (they all
// used to share implicit island 0).
func TestPartitionUnlistedIsolated(t *testing.T) {
	delivered := map[event.Addr]int{}
	c := attachCluster(1, Profile{Latency: 100}, func(a event.Addr) func(Packet) {
		return func(Packet) { delivered[a]++ }
	}, 1, 2, 3, 4)
	c.Net().Partition([]event.Addr{1, 2}) // 3 and 4 unlisted
	send := func(from, to event.Addr) {
		ep := c.eps[from-1]
		c.Enqueue(int(from-1), 0, func() { ep.Send(from, to, []byte("x")) })
	}
	send(3, 4) // unlisted -> unlisted: must not flow
	send(4, 3)
	send(3, 1) // unlisted -> listed: must not flow
	send(1, 3) // listed -> unlisted: must not flow
	send(1, 2) // same island: flows
	c.Run(int64(1e6))
	if delivered[3] != 0 || delivered[4] != 0 || delivered[1] != 0 {
		t.Fatalf("unlisted endpoints reachable: %v", delivered)
	}
	if delivered[2] != 1 {
		t.Fatalf("same-island traffic blocked: %v", delivered)
	}
	st := c.Net().Stats()
	if st.Dropped != 4 {
		t.Fatalf("Dropped = %d, want 4", st.Dropped)
	}
}
