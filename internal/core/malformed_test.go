package core

// Malformed-wire regression tests: a member fed garbage off the network
// must count the packet stray and carry on — never panic, never slice
// with the bogus offset binary.Uvarint reports for truncated or
// overflowing varints.

import (
	"bytes"
	"testing"

	"ensemble/internal/layers"
	"ensemble/internal/netsim"
	"ensemble/internal/stack"
)

func TestMalformedPacketsCountedStray(t *testing.T) {
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
			epoch := appendUvarint(nil, uint64(m.view.ID.Seq))
			cases := map[string][]byte{
				"empty":            {},
				"truncated-epoch":  {0x80}, // continuation bit set, no next byte
				"overflowed-epoch": bytes.Repeat([]byte{0x80}, 11),
				"wrong-epoch":      appendUvarint(nil, 99),
				"missing-tag":      epoch,
				"truncated-tag":    append(append([]byte(nil), epoch...), 0x80),
				"wrong-tag":        appendUvarint(append([]byte(nil), epoch...), 0xdeadbeef),
			}
			before := m.Stats().StrayPackets
			n := int64(0)
			for cname, data := range cases {
				rogue.Send(99, m.addr, data)
				g.Run(int64(1e6))
				n++
				if got := m.Stats().StrayPackets; got != before+n {
					t.Fatalf("%s: StrayPackets = %d, want %d", cname, got, before+n)
				}
			}
			// The member is still live after the garbage.
			g.Do(0, 0, func() { m.Cast([]byte("still alive")) })
			g.Run(int64(1e7))
			if m.Stats().PacketsOut == 0 {
				t.Fatal("member stopped sending after malformed input")
			}
		})
	}
}
