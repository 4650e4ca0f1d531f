// Quickstart: a three-member process group exchanging reliable
// multicasts over a lossy simulated network, in a few lines of the
// public API. Every member delivers every message despite 20% packet
// loss, duplication, and reordering — the reliability layers repair the
// channel transparently; the example panics if any member misses a cast.
package main

import (
	"fmt"

	"ensemble"
)

func main() {
	const members = 3
	delivered := make([]int, members)

	// A property-driven configuration: ask for guarantees, get a stack
	// (paper §3.2). Reliable multicast with self-delivery and
	// fragmentation.
	stack, err := ensemble.SelectStack(
		ensemble.ReliableMcast, ensemble.SelfDelivery, ensemble.Fragmentation)
	if err != nil {
		panic(err)
	}
	fmt.Printf("selected stack (top first): %v\n\n", stack)

	group, err := ensemble.NewGroup(members, ensemble.LossyNet(0.20), 1, stack, ensemble.Imp,
		func(rank int) ensemble.Handlers {
			return ensemble.Handlers{
				OnCast: func(origin int, payload []byte) {
					delivered[rank]++
					fmt.Printf("member %d delivered %q from member %d\n", rank, payload, origin)
				},
			}
		})
	if err != nil {
		panic(err)
	}

	// Application work runs on the member's own goroutine, at a virtual
	// time (here: right away).
	for i, m := range group.Members {
		i, m := i, m
		group.Do(i, 0, func() { m.Cast([]byte(fmt.Sprintf("hello from member %d", i))) })
	}

	// Advance virtual time; retransmissions settle well within a second.
	group.Run(int64(5e9))

	for i, m := range group.Members {
		st := m.Stats()
		fmt.Printf("member %d: delivered %d casts (packets in %d, out %d)\n",
			i, st.CastsDelivered, st.PacketsIn, st.PacketsOut)
		if delivered[i] != members {
			panic(fmt.Sprintf("member %d delivered %d casts, want %d", i, delivered[i], members))
		}
	}
	fmt.Println("every member delivered every cast")
}
