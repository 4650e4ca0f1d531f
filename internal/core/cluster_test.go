package core

// Tests for the N-member concurrent harness at the group-runtime level:
// the full protocol stacks (with the PR 1 pooled events, reusable
// transport writers, and MACH scratch frames) run one-goroutine-per-
// member over netsim.Cluster, and the delivery schedule must be
// identical to the sequential run for the same seed. Running this file
// under -race is the gate that the pool ownership rules hold across
// goroutines.

import (
	"fmt"
	"testing"

	"ensemble/internal/layers"
	"ensemble/internal/netsim"
	"ensemble/internal/stack"
)

// clusterRun drives a randomized N-member cast workload over a
// ClusterGroup and returns the per-member delivery logs plus the
// network trace. tune, if non-nil, adjusts the group (e.g. adaptive
// quantum) before the workload starts.
func clusterRun(t *testing.T, members, workers int, seed int64, profile netsim.Profile,
	names []string, mode stack.Mode, optimized bool, tune func(*ClusterGroup)) ([][]string, string) {
	t.Helper()
	logs := make([][]string, members)
	build := func(rank int) Handlers {
		return Handlers{
			OnCast: func(origin int, payload []byte) {
				logs[rank] = append(logs[rank], fmt.Sprintf("c%d:%s", origin, payload))
			},
			OnSend: func(origin int, payload []byte) {
				logs[rank] = append(logs[rank], fmt.Sprintf("s%d:%s", origin, payload))
			},
		}
	}
	var g *ClusterGroup
	var err error
	if optimized {
		g, err = NewOptimizedClusterGroup(members, profile, seed, names, mode, build)
	} else {
		g, err = NewClusterGroup(members, profile, seed, names, mode, build)
	}
	if err != nil {
		t.Fatal(err)
	}
	g.Cluster.EnableTrace()
	if tune != nil {
		tune(g)
	}
	// Every member casts a numbered stream; a couple of point-to-point
	// sends ride along. All injections go through the member's own
	// goroutine via Do.
	const msgs = 25
	for i := 0; i < msgs; i++ {
		i := i
		for r := range g.Members {
			r, m := r, g.Members[r]
			g.Do(r, int64(i)*2e6, func() {
				m.Cast([]byte(fmt.Sprintf("m%d-%d", r, i)))
				if i%10 == 0 {
					_ = m.Send((r+1)%members, []byte(fmt.Sprintf("p%d-%d", r, i)))
				}
			})
		}
	}
	if workers > 1 {
		g.RunConcurrent(int64(30e9), workers)
	} else {
		g.Run(int64(30e9))
	}
	return logs, g.Cluster.TraceString()
}

// TestClusterGroupSeqConcEquivalence: same seed ⇒ identical per-member
// delivery logs and byte-identical network trace, sequential vs
// concurrent, for plain and optimized members. With ≥4 members under
// Lossy this is the randomized equivalence workload the race gate runs.
func TestClusterGroupSeqConcEquivalence(t *testing.T) {
	cases := []struct {
		name      string
		names     []string
		mode      stack.Mode
		optimized bool
	}{
		{"stack10/imp", layers.Stack10(), stack.Imp, false},
		{"stack10/func", layers.Stack10(), stack.Func, false},
		{"stack10/mach", layers.Stack10(), stack.Func, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const members = 5
			seqLogs, seqTrace := clusterRun(t, members, 1, 71, netsim.Lossy(0.15), tc.names, tc.mode, tc.optimized, nil)
			concLogs, concTrace := clusterRun(t, members, members, 71, netsim.Lossy(0.15), tc.names, tc.mode, tc.optimized, nil)
			if seqTrace != concTrace {
				t.Fatalf("network traces diverge (len %d vs %d)", len(seqTrace), len(concTrace))
			}
			for r := 0; r < members; r++ {
				if fmt.Sprint(seqLogs[r]) != fmt.Sprint(concLogs[r]) {
					t.Fatalf("member %d delivery logs diverge:\nseq:  %v\nconc: %v", r, seqLogs[r], concLogs[r])
				}
				if len(seqLogs[r]) == 0 {
					t.Fatalf("member %d delivered nothing", r)
				}
			}
		})
	}
}

// TestClusterGroupAdaptiveBatchedEquivalence: with the adaptive quantum
// controller on and wire batching active (the default), sequential and
// concurrent runs still produce byte-identical traces and delivery
// logs — and the members actually coalesce (more sub-packets than
// frames on the wire).
func TestClusterGroupAdaptiveBatchedEquivalence(t *testing.T) {
	const members = 5
	adaptive := func(g *ClusterGroup) { g.Cluster.EnableAdaptiveQuantum(1_000, 1_000_000) }
	seqLogs, seqTrace := clusterRun(t, members, 1, 71, netsim.Lossy(0.15), layers.Stack10(), stack.Imp, false, adaptive)
	concLogs, concTrace := clusterRun(t, members, members, 71, netsim.Lossy(0.15), layers.Stack10(), stack.Imp, false, adaptive)
	if seqTrace != concTrace {
		t.Fatalf("adaptive traces diverge (len %d vs %d)", len(seqTrace), len(concTrace))
	}
	for r := 0; r < members; r++ {
		if fmt.Sprint(seqLogs[r]) != fmt.Sprint(concLogs[r]) {
			t.Fatalf("member %d delivery logs diverge under adaptive quantum", r)
		}
		if len(seqLogs[r]) == 0 {
			t.Fatalf("member %d delivered nothing", r)
		}
	}
}

// TestClusterGroupBatchingCoalesces: under the cluster scheduler, the
// drain-end flush actually merges wires — the network sees fewer frames
// than sub-packets.
func TestClusterGroupBatchingCoalesces(t *testing.T) {
	var g *ClusterGroup
	_, _ = clusterRun(t, 4, 1, 29, netsim.Profile{Latency: 50_000}, layers.Stack10(), stack.Imp, false,
		func(cg *ClusterGroup) { g = cg })
	st := g.Cluster.Net().Stats()
	if st.Frames == 0 || st.SubPackets <= st.Frames {
		t.Fatalf("no coalescing observed: Frames=%d SubPackets=%d", st.Frames, st.SubPackets)
	}
}

// TestClusterGroupReliabilityUnderLossConcurrent: the reliability
// guarantees (every cast delivered everywhere, per-origin FIFO) hold
// when the members actually run concurrently over a lossy network.
func TestClusterGroupReliabilityUnderLossConcurrent(t *testing.T) {
	const members, msgs = 4, 30
	logs := make([][]string, members)
	g, err := NewClusterGroup(members, netsim.Lossy(0.2), 83, layers.Stack10(), stack.Imp, func(rank int) Handlers {
		return Handlers{OnCast: func(origin int, payload []byte) {
			logs[rank] = append(logs[rank], string(payload))
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < msgs; i++ {
		i := i
		for r := range g.Members {
			r, m := r, g.Members[r]
			g.Do(r, int64(i)*1e6, func() { m.Cast([]byte(fmt.Sprintf("m%d-%d", r, i))) })
		}
	}
	g.RunConcurrent(int64(60e9), members)
	next := make([]map[int]int, members)
	for r := range next {
		next[r] = map[int]int{}
	}
	for r := 0; r < members; r++ {
		if len(logs[r]) != members*msgs {
			t.Fatalf("member %d delivered %d casts, want %d", r, len(logs[r]), members*msgs)
		}
		for _, payload := range logs[r] {
			var from, seq int
			if _, err := fmt.Sscanf(payload, "m%d-%d", &from, &seq); err != nil {
				t.Fatalf("member %d got %q", r, payload)
			}
			if next[r][from] != seq {
				t.Fatalf("member %d: origin %d delivered %d before %d (FIFO violated)", r, from, seq, next[r][from])
			}
			next[r][from] = seq + 1
		}
	}
}

// TestMemberAffinityAssert: calling into a member from a second
// goroutine while it is busy panics with the discipline message instead
// of corrupting pooled state.
func TestMemberAffinityAssert(t *testing.T) {
	g, err := NewClusterGroup(2, netsim.Profile{Latency: 1000}, 1, layers.Stack4(), stack.Imp, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := g.Members[0]
	release := m.enterExclusive("test hold") // simulate the member being mid-callback elsewhere
	defer release()
	m.inside = false // the intruder is NOT the owning goroutine
	defer func() { m.inside = true }()
	defer func() {
		if recover() == nil {
			t.Fatal("concurrent entry did not panic")
		}
	}()
	m.Cast([]byte("intruder"))
}
