// Total order: a replicated key-value register driven through the
// 10-layer stack's sequencer-based total ordering (the stack of Table
// 2(b)). Every member applies the same writes in the same order, so all
// replicas converge to identical state even though writes race from all
// members over a lossy network — the property whose proof effort located
// a subtle bug in Ensemble's implementation (§3.1).
package main

import (
	"fmt"
	"strings"

	"ensemble"
)

// register is the replicated state machine: last-writer-wins cells.
type register struct {
	rank  int
	cells map[string]string
	log   []string
}

func (r *register) apply(op []byte) {
	parts := strings.SplitN(string(op), "=", 2)
	r.cells[parts[0]] = parts[1]
	r.log = append(r.log, string(op))
}

func (r *register) digest() string {
	return fmt.Sprintf("x=%s y=%s z=%s (applied %d ops)",
		r.cells["x"], r.cells["y"], r.cells["z"], len(r.log))
}

func main() {
	const members = 3
	replicas := make([]*register, members)

	group, err := ensemble.NewGroup(members, ensemble.LossyNet(0.15), 7,
		ensemble.Stack10(), ensemble.Imp,
		func(rank int) ensemble.Handlers {
			r := &register{rank: rank, cells: map[string]string{}}
			replicas[rank] = r
			return ensemble.Handlers{
				OnCast: func(origin int, payload []byte) { r.apply(payload) },
			}
		})
	if err != nil {
		panic(err)
	}

	// Conflicting writes race from every member.
	for round := 0; round < 5; round++ {
		for rank, m := range group.Members {
			rank, m, round := rank, m, round
			group.Do(rank, int64(round)*10e6, func() {
				m.Cast([]byte(fmt.Sprintf("x=m%d.%d", rank, round)))
				m.Cast([]byte(fmt.Sprintf("y=m%d.%d", rank, round)))
				m.Cast([]byte(fmt.Sprintf("z=m%d.%d", rank, round)))
			})
		}
	}
	group.Run(int64(10e9))

	fmt.Println("replica digests (must be identical):")
	for rank, r := range replicas {
		fmt.Printf("  member %d: %s\n", rank, r.digest())
	}
	for rank := 1; rank < members; rank++ {
		if len(replicas[rank].log) != len(replicas[0].log) {
			panic("replicas diverged in length")
		}
		for i := range replicas[0].log {
			if replicas[rank].log[i] != replicas[0].log[i] {
				panic(fmt.Sprintf("replicas diverged at op %d: %q vs %q",
					i, replicas[rank].log[i], replicas[0].log[i]))
			}
		}
	}
	fmt.Println("all replicas applied the identical operation sequence — total order holds")
}
