// Partition: split-brain and heal. A four-member group is cut into two
// islands; each side suspects the other, flushes, and installs its own
// view — two groups of two, both live. When the network heals, the
// partition coordinators discover each other through merge probes, the
// lower-address coordinator leads a two-phase merge (grant, acknowledge,
// adopt), and everyone reunites in one agreed view with total ordering
// running again.
//
// This example reaches into internal packages for the network's
// partition filter; applications using the public API would encounter
// partitions from the real network instead.
package main

import (
	"fmt"

	"ensemble/internal/core"
	"ensemble/internal/event"
	"ensemble/internal/layers"
	"ensemble/internal/netsim"
	"ensemble/internal/stack"
)

func main() {
	deliveries := make([]int, 4)
	g, err := core.NewClusterGroup(4, netsim.Lossy(0.05), 33, layers.StackVsync(), stack.Imp,
		func(rank int) core.Handlers {
			return core.Handlers{
				OnCast: func(origin int, payload []byte) { deliveries[rank]++ },
				OnView: func(v *event.View) {
					fmt.Printf("member %d installed %v\n", rank, v)
				},
			}
		})
	if err != nil {
		panic(err)
	}
	g.Run(int64(2e9))

	fmt.Println("--- network partitions: {1,2} | {3,4} ---")
	g.Cluster.Net().Partition(
		[]event.Addr{g.Members[0].Addr(), g.Members[1].Addr()},
		[]event.Addr{g.Members[2].Addr(), g.Members[3].Addr()},
	)
	g.Run(int64(30e9))

	// Both sides keep working independently.
	g.Do(0, 0, func() { g.Members[0].Cast([]byte("side A lives")) })
	g.Do(2, 0, func() { g.Members[2].Cast([]byte("side B lives")) })
	g.Run(int64(5e9))
	fmt.Printf("side A view: %v\nside B view: %v\n", g.Members[0].View(), g.Members[2].View())

	fmt.Println("--- network heals ---")
	g.Cluster.Net().SetFilter(nil)
	g.Run(int64(60e9))

	for r, m := range g.Members {
		fmt.Printf("member %d final view: %v\n", r, m.View())
	}
	id := g.Members[0].View().ID
	for _, m := range g.Members[1:] {
		if m.View().ID != id {
			panic("members did not reunite")
		}
	}
	if g.Members[0].View().N() != 4 {
		panic("merged view incomplete")
	}

	// Fully ordered traffic in the merged view.
	before := append([]int(nil), deliveries...)
	for i := 0; i < 5; i++ {
		for r, m := range g.Members {
			i, m := i, m
			g.Do(r, 0, func() { m.Cast([]byte(fmt.Sprintf("reunited %d", i))) })
		}
	}
	g.Run(int64(20e9))
	for r := range g.Members {
		if deliveries[r]-before[r] != 20 {
			panic(fmt.Sprintf("member %d delivered %d post-merge casts, want 20", r, deliveries[r]-before[r]))
		}
	}
	fmt.Println("partition healed: one view, traffic flowing, total order restored")
}
