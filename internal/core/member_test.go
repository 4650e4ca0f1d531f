package core

import (
	"fmt"
	"testing"

	"ensemble/internal/layers"
	"ensemble/internal/netsim"
	"ensemble/internal/stack"
)

// delivery records one upcall for test assertions.
type delivery struct {
	to, from int
	payload  string
	cast     bool
}

// runGroup builds a group, runs body to inject traffic, then advances
// virtual time long enough for the traffic to settle.
func runGroup(t *testing.T, n int, profile netsim.Profile, names []string, mode stack.Mode, body func(g *ClusterGroup)) []delivery {
	t.Helper()
	var deliveries []delivery
	g, err := NewClusterGroup(n, profile, 42, names, mode, func(rank int) Handlers {
		return Handlers{
			OnCast: func(origin int, payload []byte) {
				deliveries = append(deliveries, delivery{to: rank, from: origin, payload: string(payload), cast: true})
			},
			OnSend: func(origin int, payload []byte) {
				deliveries = append(deliveries, delivery{to: rank, from: origin, payload: string(payload)})
			},
		}
	})
	if err != nil {
		t.Fatalf("NewClusterGroup: %v", err)
	}
	body(g)
	g.Run(int64(20e9)) // 20 virtual seconds: plenty for retransmission to settle
	return deliveries
}

func stacksUnderTest() map[string][]string {
	return map[string][]string{
		"stack4":  layers.Stack4(),
		"fifo":    layers.StackFifo(),
		"stack10": layers.Stack10(),
	}
}

func TestCastDeliveryPerfectNet(t *testing.T) {
	for name, names := range stacksUnderTest() {
		for _, mode := range []stack.Mode{stack.Imp, stack.Func} {
			t.Run(fmt.Sprintf("%s/%s", name, mode), func(t *testing.T) {
				ds := runGroup(t, 3, netsim.Profile{Latency: 1000}, names, mode, func(g *ClusterGroup) {
					g.Do(0, 0, func() { g.Members[0].Cast([]byte("hello")) })
				})
				var got []delivery
				for _, d := range ds {
					if d.cast && d.payload == "hello" {
						got = append(got, d)
					}
				}
				// Members 1 and 2 always deliver; member 0 self-delivers
				// only when the stack has a local layer.
				want := 2
				for _, l := range names {
					if l == layers.Local {
						want = 3
					}
				}
				if len(got) != want {
					t.Fatalf("got %d deliveries (%v), want %d", len(got), got, want)
				}
				for _, d := range got {
					if d.from != 0 {
						t.Errorf("delivery %v: wrong origin", d)
					}
				}
			})
		}
	}
}

func TestSendDeliveryPerfectNet(t *testing.T) {
	for name, names := range stacksUnderTest() {
		t.Run(name, func(t *testing.T) {
			ds := runGroup(t, 3, netsim.Profile{Latency: 1000}, names, stack.Imp, func(g *ClusterGroup) {
				g.Do(0, 0, func() { _ = g.Members[0].Send(2, []byte("direct")) })
				g.Do(2, 0, func() { _ = g.Members[2].Send(0, []byte("reply")) })
			})
			var sends []delivery
			for _, d := range ds {
				if !d.cast {
					sends = append(sends, d)
				}
			}
			if len(sends) != 2 {
				t.Fatalf("got %d send deliveries (%v), want 2", len(sends), sends)
			}
		})
	}
}

func TestFifoOrderPerOriginUnderLoss(t *testing.T) {
	const msgs = 50
	for _, mode := range []stack.Mode{stack.Imp, stack.Func} {
		t.Run(mode.String(), func(t *testing.T) {
			ds := runGroup(t, 3, netsim.Lossy(0.20), layers.Stack10(), mode, func(g *ClusterGroup) {
				for i := 0; i < msgs; i++ {
					i := i
					for r, m := range g.Members {
						r, m := r, m
						g.Do(r, int64(i)*1e6, func() {
							m.Cast([]byte(fmt.Sprintf("m%d-%d", r, i)))
						})
					}
				}
			})
			// Every member must deliver every message from every origin,
			// in per-origin FIFO order.
			next := map[[2]int]int{}
			count := 0
			for _, d := range ds {
				if !d.cast {
					continue
				}
				count++
				want := fmt.Sprintf("m%d-%d", d.from, next[[2]int{d.to, d.from}])
				if d.payload != want {
					t.Fatalf("member %d got %q from %d, want %q", d.to, d.payload, d.from, want)
				}
				next[[2]int{d.to, d.from}]++
			}
			if count != 3*3*msgs {
				t.Fatalf("delivered %d casts, want %d", count, 3*3*msgs)
			}
		})
	}
}

func TestTotalOrderAgreementUnderLoss(t *testing.T) {
	const msgs = 30
	perMember := make([][]string, 3)
	ds := runGroup(t, 3, netsim.Lossy(0.15), layers.Stack10(), stack.Imp, func(g *ClusterGroup) {
		for i := 0; i < msgs; i++ {
			i := i
			for r, m := range g.Members {
				r, m := r, m
				g.Do(r, int64(i)*2e6, func() {
					m.Cast([]byte(fmt.Sprintf("t%d-%d", r, i)))
				})
			}
		}
	})
	for _, d := range ds {
		if d.cast {
			perMember[d.to] = append(perMember[d.to], d.payload)
		}
	}
	for r := 0; r < 3; r++ {
		if len(perMember[r]) != 3*msgs {
			t.Fatalf("member %d delivered %d casts, want %d", r, len(perMember[r]), 3*msgs)
		}
	}
	// Total order: every member delivers the identical sequence.
	for r := 1; r < 3; r++ {
		for i := range perMember[0] {
			if perMember[r][i] != perMember[0][i] {
				t.Fatalf("member %d delivery %d = %q, member 0 = %q: total order violated",
					r, i, perMember[r][i], perMember[0][i])
			}
		}
	}
}

func TestLargeMessageFragmentation(t *testing.T) {
	big := make([]byte, 100_000)
	for i := range big {
		big[i] = byte(i * 31)
	}
	ds := runGroup(t, 2, netsim.Lossy(0.1), layers.Stack10(), stack.Imp, func(g *ClusterGroup) {
		g.Do(0, 0, func() { g.Members[0].Cast(big) })
	})
	got := 0
	for _, d := range ds {
		if d.cast && d.to == 1 {
			got++
			if d.payload != string(big) {
				t.Fatalf("member 1 got corrupted payload (len %d, want %d)", len(d.payload), len(big))
			}
		}
	}
	if got != 1 {
		t.Fatalf("member 1 delivered %d large casts, want 1", got)
	}
}

func TestStabilityGarbageCollection(t *testing.T) {
	var stableSeen []int64
	g, err := NewClusterGroup(3, netsim.Profile{Latency: 1000}, 1, layers.Stack10(), stack.Imp, func(rank int) Handlers {
		if rank != 0 {
			return Handlers{}
		}
		return Handlers{OnStable: func(vec []int64) { stableSeen = append([]int64(nil), vec...) }}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		g.Do(0, 0, func() { g.Members[0].Cast([]byte("x")) })
	}
	g.Run(int64(10e9))
	if stableSeen == nil {
		t.Fatal("no EStable reached the application")
	}
	if stableSeen[0] < 10 {
		t.Fatalf("stability for member 0 = %d, want >= 10 (its own casts)", stableSeen[0])
	}
}
