package core

import (
	"fmt"
	"testing"

	"ensemble/internal/event"
	"ensemble/internal/layers"
	"ensemble/internal/netsim"
	"ensemble/internal/stack"
)

// crash makes a member disappear abruptly: it stops participating and
// its endpoint drops off the network (at the next run's first barrier),
// as a process failure would. Call it between runs.
func crash(g *ClusterGroup, rank int) {
	m := g.Members[rank]
	m.exited = true
	g.Eps[rank].Detach(m.addr)
}

func TestViewChangeOnCrash(t *testing.T) {
	var views [][]*event.View
	g, err := NewClusterGroup(3, netsim.Profile{Latency: 1000}, 7, layers.StackVsync(), stack.Imp, func(rank int) Handlers {
		return Handlers{}
	})
	if err != nil {
		t.Fatal(err)
	}
	views = make([][]*event.View, 3)
	for r, m := range g.Members {
		r := r
		m.h.OnView = func(v *event.View) { views[r] = append(views[r], v) }
	}
	// Warm up: some traffic in the initial view.
	g.Do(0, 0, func() { g.Members[0].Cast([]byte("warm")) })
	g.Run(int64(2e9))

	crash(g, 2)
	g.Run(int64(30e9))

	for r := 0; r < 2; r++ {
		if len(views[r]) == 0 {
			t.Fatalf("member %d never installed a new view", r)
		}
		last := views[r][len(views[r])-1]
		if last.N() != 2 {
			t.Fatalf("member %d last view has %d members, want 2", r, last.N())
		}
		if last.RankOf(g.Members[2].addr) != -1 {
			t.Fatalf("member %d last view still contains the crashed member", r)
		}
	}
	// The survivors agree on the final view.
	v0, v1 := views[0][len(views[0])-1], views[1][len(views[1])-1]
	if v0.ID != v1.ID {
		t.Fatalf("survivors installed different views: %v vs %v", v0.ID, v1.ID)
	}
}

func TestTrafficContinuesAfterViewChange(t *testing.T) {
	var got []string
	g, err := NewClusterGroup(3, netsim.Profile{Latency: 1000}, 9, layers.StackVsync(), stack.Imp, func(rank int) Handlers {
		if rank != 0 {
			return Handlers{}
		}
		return Handlers{OnCast: func(origin int, payload []byte) { got = append(got, string(payload)) }}
	})
	if err != nil {
		t.Fatal(err)
	}
	crash(g, 2)
	g.Run(int64(30e9)) // let the view change settle

	if g.Members[1].View().N() != 2 {
		t.Fatalf("member 1 still in view of %d", g.Members[1].View().N())
	}
	// Member 1's rank may have changed; send in the new view.
	g.Do(1, 0, func() { g.Members[1].Cast([]byte("after")) })
	g.Run(int64(10e9))

	found := false
	for _, p := range got {
		if p == "after" {
			found = true
		}
	}
	if !found {
		t.Fatalf("member 0 never delivered post-view-change cast; got %v", got)
	}
}

func TestGracefulLeave(t *testing.T) {
	exited := false
	g, err := NewClusterGroup(3, netsim.Profile{Latency: 1000}, 11, layers.StackVsync(), stack.Imp, func(rank int) Handlers {
		if rank != 2 {
			return Handlers{}
		}
		return Handlers{OnExit: func() { exited = true }}
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Run(int64(1e9))
	g.Do(2, 0, g.Members[2].Leave)
	g.Run(int64(30e9))

	if !exited {
		t.Fatal("leaving member never got OnExit")
	}
	for r := 0; r < 2; r++ {
		if g.Members[r].View().N() != 2 {
			t.Fatalf("member %d view has %d members after leave, want 2", r, g.Members[r].View().N())
		}
	}
}

func TestCastsDuringFlushAreNotLost(t *testing.T) {
	// Virtual synchrony: casts submitted while the membership protocol
	// is flushing must be delivered in the next view, not dropped.
	deliveredAt0 := map[string]bool{}
	g, err := NewClusterGroup(3, netsim.Profile{Latency: 1000}, 13, layers.StackVsync(), stack.Imp, func(rank int) Handlers {
		if rank != 0 {
			return Handlers{}
		}
		return Handlers{OnCast: func(origin int, payload []byte) { deliveredAt0[string(payload)] = true }}
	})
	if err != nil {
		t.Fatal(err)
	}
	crash(g, 2)
	// Submit while the failure is being detected and flushed: spread
	// casts across the detection window.
	for i := 0; i < 20; i++ {
		i := i
		g.Do(1, int64(i)*300e6, func() {
			g.Members[1].Cast([]byte(fmt.Sprintf("flush-%d", i)))
		})
	}
	g.Run(int64(60e9))
	for i := 0; i < 20; i++ {
		if !deliveredAt0[fmt.Sprintf("flush-%d", i)] {
			t.Fatalf("cast flush-%d was lost across the view change", i)
		}
	}
}
