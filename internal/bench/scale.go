package bench

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"ensemble/internal/layer"
	"ensemble/internal/layers"
	"ensemble/internal/netsim"
)

// The member-count scaling harness: how far the sharded scheduler and
// the tree-shaped membership carry one simulated group. Three member
// counts anchor the sweep — 16 (one tree level), 64 (flat group, tree
// membership), 256 (16 hierarchical groups of 16 bridged by a spine) —
// each measured sequentially and concurrently, reporting throughput
// per member so the points are comparable across sizes.

// ScaleStack is the scaling benches' protocol stack: StackVsync without
// the total-order layer. Total ordering funnels every cast through the
// rank-0 sequencer, so above ~16 members the benchmark would measure
// the sequencer wall, not the scheduler or the membership topology
// under test. FIFO-reliable virtual synchrony is the property the
// scaling sweep holds fixed.
func ScaleStack() []string {
	return []string{layers.PartialAppl, layers.Membership, layers.Suspect, layers.Local,
		layers.Collect, layers.Frag, layers.Pt2ptw, layers.Mflow, layers.Pt2pt,
		layers.Mnak, layers.Bottom}
}

// ScaleResult is one scaling point.
type ScaleResult struct {
	Members int
	// Groups is 0 for a flat group; otherwise the member set ran as
	// Groups leaf groups of Members/Groups bridged by a spine.
	Groups int
	Rounds int
	// Delivered counts application deliveries across all members.
	Delivered int
	Wall      time.Duration
	// MsgsPerSec is cast submissions per wall second; PerMember divides
	// by the member count — the number the scaling gate bounds.
	MsgsPerSec float64
	PerMember  float64
	// Identical reports the run's determinism probe: a short traced
	// workload at the same member count, Run vs RunConcurrent, compared
	// byte for byte.
	Identical bool
	Net       netsim.Stats
}

// MeasureScale drives `rounds` all-cast rounds through a flat group of
// `members` over simulated Ethernet — every member casts once per
// round — and verifies every cast reached every member. The membership
// layer picks its dissemination topology automatically (tree at >= 16).
// workers <= 1 runs sequentially.
func MeasureScale(members, rounds int, seed int64, workers int) (ScaleResult, error) {
	return measureScale(scaleSpec(members, 0, 0, seed), rounds, int64(2e9), workers,
		fmt.Sprintf("scale %d", members))
}

// MeasureHierScale is MeasureScale over a hierarchy: groups leaf groups
// of per members bridged by a spine of relays (see core.HierGroup).
// Every leaf member casts once per round and every cast must reach all
// groups*per members through its relay path. The relay path adds two
// stack traversals per cast, so the stability tail gets the flat
// harness's headroom plus one extra second for the spine hop.
func MeasureHierScale(groups, per, rounds int, seed int64, workers int) (ScaleResult, error) {
	return measureScale(scaleSpec(0, groups, per, seed), rounds, int64(3e9), workers,
		fmt.Sprintf("hier scale %dx%d", groups, per))
}

// scaleSpec is the sweep's group: ScaleStack under FUNC over simulated
// Ethernet, flat (members, one scheduler shard per 8) or a groups×per
// hierarchy, submitting at roundInterval.
func scaleSpec(members, groups, per int, seed int64) groupSpec {
	return groupSpec{
		members: members, groups: groups, per: per, names: ScaleStack(), cfg: FUNC,
		profile: netsim.Ethernet100(), seed: seed, shards: max(members/8, 1),
		mode: BatchedCross, interval: roundInterval,
	}
}

// measureScale runs spec's all-cast rounds under the adaptive quantum
// for tail past the last round, then its determinism probe: a short
// traced workload at the same member count (the next seed, at most 8
// casters, 2 rounds), Run vs RunConcurrent byte for byte — kept short
// so the probe does not dominate the measurement.
func measureScale(spec groupSpec, rounds int, tail int64, workers int, name string) (ScaleResult, error) {
	probe := spec
	spec.quantum, spec.rounds, spec.submit = true, rounds, castFrom(32, math.MaxInt)
	spec.until, spec.workers = int64(rounds)*roundInterval+tail, workers
	spec.complete, spec.name = true, name
	run, err := runGroup(spec)
	if run == nil {
		return ScaleResult{}, err
	}
	res := ScaleResult{
		Members:    run.Members,
		Groups:     spec.groups,
		Rounds:     rounds,
		Delivered:  run.Delivered,
		Wall:       run.Wall,
		MsgsPerSec: run.MsgsPerSec,
		PerMember:  run.MsgsPerSec / float64(run.Members),
		Net:        run.Net,
	}
	if err != nil {
		return res, err
	}
	probe.seed++
	probe.rounds, probe.submit, probe.until = 2, castFrom(16, 8), int64(200e6)
	res.Identical, err = traceIdentical(probe, workers)
	return res, err
}

// castFrom submits one cast per round from each of the first casters
// ranks, every cast sharing one size-byte payload.
func castFrom(size, casters int) func(run *groupRun, rank, round int, at int64) {
	buf := make([]byte, size)
	return func(run *groupRun, rank, _ int, at int64) {
		if rank < casters {
			run.cast(rank, at, buf)
		}
	}
}

// XFrameIdentityProbe is the wire-format determinism check behind Gate
// 7: a short traced cast workload through a MACH group with the
// production wire defaults left on — cross-frame delta chains and the
// adaptive flush controller — replayed in both execution modes and
// compared byte for byte. A scheduled mid-run generation bump on every
// member forces the chains through the full-resend state machine under
// concurrency, so the probe covers exactly the stateful machinery that
// could have cost determinism.
func XFrameIdentityProbe(members int, seed int64, workers int) (bool, error) {
	cast := castFrom(16, members)
	return traceIdentical(groupSpec{
		members: members, names: layers.Stack10(), cfg: MACH, profile: netsim.Ethernet100(), seed: seed + 1,
		mode: BatchedCross, quantum: true, rounds: 4, interval: roundInterval, until: int64(200e6),
		submit: func(run *groupRun, r, i int, at int64) {
			cast(run, r, i, at)
			if i == 1 {
				// Between rounds 1 and 2: every chain restarts from a
				// full-header anchor in a new generation.
				run.flat.Do(r, at+roundInterval/2, run.members[r].Batcher().BumpGenerations)
			}
		},
	}, workers)
}

// ViewChange is one measured view change: a graceful leave from a
// group of Members under the given membership fanout (-1 flat, 0 auto,
// k > 0 forced k-ary tree).
type ViewChange struct {
	Members int
	Fanout  int
	// LatencyVirtual is virtual ns from the leave to the last
	// survivor's view install.
	LatencyVirtual int64
	// Packets/Bytes are the network's deltas over that window —
	// dissemination cost plus whatever gossip the window contains.
	Packets int64
	Bytes   int64
}

// MeasureViewChange runs one graceful leave and reports how long the
// view change took and what it put on the wire. Deterministic: the
// run is sequential, so the same (members, fanout, seed) always
// measures the same virtual schedule. This is the before/after pair
// behind the membership-topology numbers: fanout -1 measures the flat
// protocol, 0 the auto topology (tree at >= 16 members).
func MeasureViewChange(members, fanout int, seed int64) (ViewChange, error) {
	installed := make([]int64, members) // virtual install time per rank; 0 = not yet
	spec := scaleSpec(members, 0, 0, seed)
	spec.tune = func(c *layer.Config) { c.MembFanout = fanout }
	spec.onView = func(rank int, now int64) {
		if installed[rank] == 0 {
			installed[rank] = now
		}
	}
	run, err := buildGroup(spec)
	if err != nil {
		return ViewChange{}, err
	}
	g := run.flat
	g.Run(int64(1e9)) // settle the initial view
	clear(installed)
	before := g.Cluster.Net().Stats()
	t0 := g.Cluster.Sim().Now()
	leaver := members - 1  // a tree leaf; the coordinator stays put
	installed[leaver] = t0 // only the survivors' installs are awaited
	g.Do(leaver, 0, func() { g.Members[leaver].Leave() })
	// Advance in 100 ms slices so the wire-cost window ends close to
	// the last install; bound the whole change at 60 s virtual.
	for i := 0; i < 600 && slices.Contains(installed, 0); i++ {
		g.Run(int64(100e6))
	}
	if slices.Contains(installed, 0) {
		return ViewChange{}, fmt.Errorf("bench: view change at %d members (fanout %d) never completed", members, fanout)
	}
	after := g.Cluster.Net().Stats()
	return ViewChange{
		Members:        members,
		Fanout:         fanout,
		LatencyVirtual: slices.Max(installed) - t0,
		Packets:        after.Sent - before.Sent,
		Bytes:          after.BytesOnWire - before.BytesOnWire,
	}, nil
}

// ScaleTable renders the member-count scaling sweep plus the
// flat-vs-tree view-change comparison — the `-table scale` entry of
// cmd/ensemble-bench. workers sizes the concurrent runs.
func ScaleTable(workers int) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "Member-count scaling (FIFO vsync stack, 100Mb Ethernet, all-cast rounds)\n")
	fmt.Fprintf(&b, "%-10s %-8s %-7s %12s %14s %10s %10s\n",
		"members", "layout", "rounds", "msgs/sec", "per-member/s", "identical", "wall")
	for _, p := range []struct {
		label string
		run   func(workers int) (ScaleResult, error)
	}{
		{"16 flat", func(w int) (ScaleResult, error) { return MeasureScale(16, 20, 31, w) }},
		{"64 flat", func(w int) (ScaleResult, error) { return MeasureScale(64, 8, 31, w) }},
		{"256 16x16", func(w int) (ScaleResult, error) { return MeasureHierScale(16, 16, 3, 31, w) }},
	} {
		for _, w := range []int{1, workers} {
			label := "seq"
			if w > 1 {
				label = fmt.Sprintf("conc/%d", w)
			}
			res, err := p.run(w)
			if err != nil {
				return "", fmt.Errorf("%s %s: %w", p.label, label, err)
			}
			fmt.Fprintf(&b, "%-10s %-8s %-7d %12.0f %14.1f %10t %10s\n",
				p.label, label, res.Rounds, res.MsgsPerSec, res.PerMember,
				res.Identical, res.Wall.Round(time.Millisecond))
			if w >= workers {
				break // workers == 1: one row is both
			}
		}
	}
	fmt.Fprintf(&b, "\nView change cost: graceful leave, flat vs tree dissemination\n")
	fmt.Fprintf(&b, "%-10s %-8s %14s %10s %10s\n", "members", "mode", "latency(ms)", "packets", "bytes")
	for _, m := range []int{16, 64} {
		for _, f := range []struct {
			fanout int
			label  string
		}{{-1, "flat"}, {0, "tree"}} {
			vc, err := MeasureViewChange(m, f.fanout, 37)
			if err != nil {
				return "", fmt.Errorf("view change %d/%s: %w", m, f.label, err)
			}
			fmt.Fprintf(&b, "%-10d %-8s %14.1f %10d %10d\n",
				m, f.label, float64(vc.LatencyVirtual)/1e6, vc.Packets, vc.Bytes)
		}
	}
	return b.String(), nil
}
