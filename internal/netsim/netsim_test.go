package netsim

import (
	"fmt"
	"math"
	"testing"

	"ensemble/internal/event"
)

// attachCluster builds a cluster with one attached endpoint per address,
// in order; recv(a) supplies endpoint a's receive callback (nil
// discards).
func attachCluster(seed int64, profile Profile, recv func(a event.Addr) func(Packet), addrs ...event.Addr) *Cluster {
	c := NewCluster(seed, profile)
	for _, a := range addrs {
		var fn func(Packet)
		if recv != nil {
			fn = recv(a)
		}
		if fn == nil {
			fn = func(Packet) {}
		}
		c.NewEndpoint(a).Attach(a, fn)
	}
	return c
}

func TestSimOrdering(t *testing.T) {
	c := NewCluster(1, Profile{})
	var got []int
	c.AtVirtual(30, func() { got = append(got, 3) })
	c.AtVirtual(10, func() { got = append(got, 1) })
	c.AtVirtual(20, func() { got = append(got, 2) })
	// Ties fire in insertion order.
	c.AtVirtual(20, func() { got = append(got, 4) })
	c.Run(100)
	want := []int{1, 2, 4, 3}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	if c.Sim().Now() != 100 {
		t.Fatalf("Now = %d after Run(100)", c.Sim().Now())
	}
}

func TestSimPastSchedulesClampToNow(t *testing.T) {
	c := NewCluster(1, Profile{})
	fired := int64(-1)
	c.AtVirtual(50, func() {
		c.AtVirtual(10, func() { fired = c.Sim().Now() }) // in the past: runs at now
	})
	c.Run(100)
	if fired != 50 {
		t.Fatalf("past-scheduled event fired at %d, want 50", fired)
	}
}

func TestSimDeterminism(t *testing.T) {
	trace := func(seed int64) string {
		var log string
		c := attachCluster(seed, Lossy(0.3), func(a event.Addr) func(Packet) {
			return func(p Packet) { log += fmt.Sprintf("%d<-%d:%d;", p.To, p.From, len(p.Data)) }
		}, 1, 2, 3)
		c.Enqueue(0, 0, func() {
			for i := 0; i < 50; i++ {
				c.eps[0].Cast(1, make([]byte, i))
			}
		})
		c.Enqueue(1, 0, func() {
			for i := 0; i < 50; i++ {
				c.eps[1].Send(2, 3, make([]byte, i))
			}
		})
		c.Run(int64(1e9))
		return log
	}
	if trace(7) != trace(7) {
		t.Fatal("same seed produced different traces")
	}
	if trace(7) == trace(8) {
		t.Fatal("different seeds produced identical traces (suspicious)")
	}
}

func TestNetFifoWithoutJitter(t *testing.T) {
	var got []int
	c := attachCluster(3, Profile{Latency: 1000}, func(a event.Addr) func(Packet) {
		if a != 2 {
			return nil
		}
		return func(p Packet) { got = append(got, int(p.Data[0])) }
	}, 1, 2)
	c.Enqueue(0, 0, func() {
		for i := 0; i < 100; i++ {
			c.eps[0].Send(1, 2, []byte{byte(i)})
		}
	})
	c.Run(int64(1e9))
	for i, v := range got {
		if v != i {
			t.Fatalf("delivery %d = %d: reordering on a jitter-free link", i, v)
		}
	}
	if len(got) != 100 {
		t.Fatalf("delivered %d/100", len(got))
	}
}

func TestNetLossRate(t *testing.T) {
	delivered := 0
	c := attachCluster(5, Profile{Latency: 10, LossProb: 0.25}, func(a event.Addr) func(Packet) {
		if a != 2 {
			return nil
		}
		return func(Packet) { delivered++ }
	}, 1, 2)
	const total = 20000
	c.Enqueue(0, 0, func() {
		for i := 0; i < total; i++ {
			c.eps[0].Send(1, 2, []byte{1})
		}
	})
	c.Run(int64(1e9))
	rate := 1 - float64(delivered)/total
	if math.Abs(rate-0.25) > 0.02 {
		t.Fatalf("loss rate %.3f, want ≈0.25", rate)
	}
	st := c.Net().Stats()
	if st.Dropped != int64(total-delivered) {
		t.Fatalf("stats dropped=%d, observed %d", st.Dropped, total-delivered)
	}
}

func TestNetDuplication(t *testing.T) {
	delivered := 0
	c := attachCluster(5, Profile{Latency: 10, DupProb: 0.5}, func(a event.Addr) func(Packet) {
		if a != 2 {
			return nil
		}
		return func(Packet) { delivered++ }
	}, 1, 2)
	const total = 10000
	c.Enqueue(0, 0, func() {
		for i := 0; i < total; i++ {
			c.eps[0].Send(1, 2, []byte{1})
		}
	})
	c.Run(int64(1e9))
	extra := float64(delivered-total) / total
	if math.Abs(extra-0.5) > 0.03 {
		t.Fatalf("duplication rate %.3f, want ≈0.5", extra)
	}
}

func TestNetCastExcludesSender(t *testing.T) {
	counts := map[event.Addr]int{}
	c := attachCluster(1, Profile{}, func(a event.Addr) func(Packet) {
		return func(Packet) { counts[a]++ }
	}, 1, 2, 3)
	c.Enqueue(0, 0, func() { c.eps[0].Cast(1, []byte("x")) })
	c.Run(10)
	if counts[1] != 0 || counts[2] != 1 || counts[3] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestNetDetach(t *testing.T) {
	got := 0
	c := attachCluster(1, Profile{Latency: 100}, func(a event.Addr) func(Packet) {
		if a != 2 {
			return nil
		}
		return func(Packet) { got++ }
	}, 2, 1)
	c.Enqueue(1, 0, func() { c.eps[1].Send(1, 2, []byte("a")) }) // in flight
	c.Enqueue(0, 10, func() { c.eps[0].Detach(2) })
	c.Enqueue(1, 20, func() { c.eps[1].Send(1, 2, []byte("b")) })
	c.Run(int64(1e6))
	if got != 0 {
		t.Fatalf("detached endpoint received %d packets", got)
	}
	if st := c.Net().Stats(); st.Sent != 2 || st.Dropped != 2 {
		t.Fatalf("packets to a detached endpoint must count dropped: %+v", st)
	}
}

func TestNetSendCopiesData(t *testing.T) {
	var seen []byte
	c := attachCluster(1, Profile{Latency: 100}, func(a event.Addr) func(Packet) {
		if a != 2 {
			return nil
		}
		return func(p Packet) { seen = p.Data }
	}, 1, 2)
	c.Enqueue(0, 0, func() {
		buf := []byte{1, 2, 3}
		c.eps[0].Send(1, 2, buf)
		buf[0] = 99 // caller reuses its buffer before delivery
	})
	c.Run(int64(1e6))
	if seen[0] != 1 {
		t.Fatal("network aliased the caller's buffer")
	}
}

func TestDuplicateAttachPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c := NewCluster(1, Profile{})
	ep := c.NewEndpoint(1)
	ep.Attach(1, func(Packet) {})
	ep.Attach(1, func(Packet) {})
}

func TestProfiles(t *testing.T) {
	if Ethernet100().Latency != 80_000 {
		t.Error("Ethernet100 latency should match the paper's ~80µs")
	}
	if VIA().Latency != 10_000 {
		t.Error("VIA latency should match the paper's ~10µs")
	}
	l := Lossy(0.2)
	if l.LossProb != 0.2 || l.Jitter == 0 {
		t.Errorf("Lossy profile: %+v", l)
	}
}
