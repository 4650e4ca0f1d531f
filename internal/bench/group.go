package bench

import (
	"encoding/binary"
	"fmt"
	"time"

	"ensemble/internal/core"
	"ensemble/internal/event"
	"ensemble/internal/layer"
	"ensemble/internal/netsim"
	"ensemble/internal/obs"
	"ensemble/internal/opt"
	"ensemble/internal/stack"
)

// roundInterval spaces submission rounds 200 µs apart, so successive
// rounds overlap in flight on the 80 µs Ethernet link.
const roundInterval = int64(200_000)

// groupSpec is one N-member netsim run: full protocol stacks over the
// simulated network, one goroutine per member when concurrent — so the
// paper's figures regenerate for groups above two, and, under the race
// detector, the pooled hot path is proven safe when members really run
// concurrently. Every group harness here — net throughput, the scaling
// sweep, the mixed workload, the view change and the trace-identity
// probes — is a groupSpec run through one seeded build–schedule–run
// core (buildGroup, runGroup).
type groupSpec struct {
	// members sizes a flat group; groups > 0 builds groups leaf groups
	// of per members bridged by a spine (core.HierGroup; not MACH).
	members, groups, per int
	names                []string
	cfg                  Config
	profile              netsim.Profile
	seed                 int64
	shards               int // flat groups; 0 keeps one shard
	tune                 func(*layer.Config)
	engOpts              []opt.EngineOpt
	mode                 BatchMode // ablates the member default, BatchedCross
	quantum              bool      // adaptive batch window
	ring                 int       // > 0: obs on, flight ring of that many records
	stamped              bool      // casts carry their virtual send time in 8 bytes
	onView               func(rank int, now int64)
	// submit schedules rank's work for round, due at virtual time at =
	// round*interval, through the run's cast and send.
	rounds   int
	interval int64
	submit   func(run *groupRun, rank, round int, at int64)
	snapAt   int64 // > 0: snapshot bytes on the wire at this virtual time
	until    int64 // virtual deadline
	workers  int   // <= 1 runs sequentially
	trace    bool
	complete bool   // fail unless every owed delivery happened
	name     string // for errors
}

// groupRun is a built group and, once run, its counts — in the terms
// of NetThroughput, one N-member run's result (Size and BytesPerMsg
// apart, which only the net-throughput config defines).
type groupRun struct {
	NetThroughput
	flat     *core.ClusterGroup // nil for a hierarchy
	hier     *core.HierGroup
	cluster  *netsim.Cluster
	members  []*core.Member // by (global) rank
	eps      []*netsim.Endpoint
	reg      *obs.Registry
	expected int // deliveries the scheduled submissions owe
	missing  int
	// latSum and latN are per rank: a member's handlers run on its
	// goroutine and touch only its own slot.
	latSum, latN []int64
	eng          opt.EngineStats // per-path and control counters, summed
	trace        string
}

// buildGroup builds the spec's group with its ablation, batch window
// and observability applied — everything but the schedule.
func buildGroup(s groupSpec) (*groupRun, error) {
	n := s.members + s.groups*s.per
	switch {
	case s.cfg == HAND || s.groups > 0 && s.cfg == MACH:
		return nil, fmt.Errorf("bench: config %s has no such N-member harness", s.cfg)
	case n < 2:
		return nil, fmt.Errorf("bench: %s needs >= 2 members, got %d", s.name, n)
	}
	mode := stack.Func
	if s.cfg == IMP {
		mode = stack.Imp
	}
	run := &groupRun{latSum: make([]int64, n), latN: make([]int64, n)}
	handlers := func(rank int) core.Handlers {
		var h core.Handlers
		if s.stamped {
			h.OnCast = func(origin int, payload []byte) {
				// Self-delivery is a local loop; it would dilute the
				// over-the-link latency.
				if origin != rank && len(payload) >= 8 {
					run.latSum[rank] += run.eps[rank].Now() - int64(binary.LittleEndian.Uint64(payload))
					run.latN[rank]++
				}
			}
		}
		if s.onView != nil {
			h.OnView = func(*event.View) { s.onView(rank, run.eps[rank].Now()) }
		}
		return h
	}
	var err error
	switch {
	case s.groups > 0:
		if run.hier, err = core.NewHierGroup(s.groups, s.per, s.profile, s.seed, s.names, mode, handlers); err != nil {
			return nil, err
		}
		run.cluster = run.hier.Cluster
		for g := range run.hier.Leaf {
			run.members = append(run.members, run.hier.Leaf[g]...)
			run.eps = append(run.eps, run.hier.LeafEps[g]...)
		}
	case s.cfg == MACH:
		run.flat, err = core.NewOptimizedClusterGroup(n, s.profile, s.seed, s.names, mode, handlers, s.engOpts...)
	default:
		run.flat, err = core.NewTunedClusterGroup(n, s.profile, s.seed, s.names, mode, handlers, s.tune)
	}
	if err != nil {
		return nil, err
	}
	if run.flat != nil {
		run.cluster, run.members, run.eps = run.flat.Cluster, run.flat.Members, run.flat.Eps
		if s.shards > 0 {
			run.cluster.SetShards(s.shards)
		}
	}
	// Ablate the member default down the wire-format ladder (BatchMode).
	for _, m := range run.members {
		b := m.Batcher()
		switch s.mode {
		case BatchedDelta:
			b.DisableCrossFrame()
		case Batched, Immediate:
			b.DisableDelta()
			b.SetImmediate(s.mode == Immediate)
		}
		if s.mode != BatchedCross {
			b.DisableAdaptiveFlush()
		}
	}
	if s.quantum {
		// The floor spans two submission rounds, so a drain always has at
		// least two of a member's casts to coalesce; the controller widens
		// the window further when traffic thins out.
		run.cluster.EnableAdaptiveQuantum(2*roundInterval, 100_000_000)
	}
	if s.ring > 0 {
		run.reg, run.Recorder = obs.NewRegistry(), obs.NewRecorder(n, s.ring)
		run.flat.EnableObs(run.reg, run.Recorder)
	}
	return run, nil
}

// runGroup builds the spec's group, schedules every rank's submissions
// for every round, runs to the deadline and collects the counts.
func runGroup(s groupSpec) (*groupRun, error) {
	run, err := buildGroup(s)
	if err != nil {
		return nil, err
	}
	for i := 0; i < s.rounds; i++ {
		for r := range run.members {
			s.submit(run, r, i, int64(i)*s.interval)
		}
	}
	if s.snapAt > 0 {
		// Reads a counter only, so it cannot perturb the run.
		run.cluster.AtVirtual(s.snapAt, func() { run.WindowBytesOnWire = run.cluster.Net().Stats().BytesOnWire })
	}
	if s.trace {
		run.cluster.EnableTrace()
	}
	t0 := time.Now()
	run.cluster.RunConcurrent(run.cluster.Sim().Now()+s.until, s.workers)
	run.Config, run.Members, run.Rounds, run.Mode = s.cfg, len(run.members), s.rounds, s.mode
	run.Wall, run.Net, run.trace = time.Since(t0), run.cluster.Net().Stats(), run.cluster.TraceString()
	run.MsgsPerSec = float64(run.Members*run.Rounds) / run.Wall.Seconds()
	if run.Net.Frames > 0 {
		run.SubsPerFrame = float64(run.Net.SubPackets) / float64(run.Net.Frames)
	}
	if run.reg != nil {
		run.Metrics = run.reg.Snapshot()
	}
	var latSum, latN int64
	for r, m := range run.members {
		st := m.Stats()
		run.Delivered += int(st.CastsDelivered + st.SendsDelivered)
		latSum, latN = latSum+run.latSum[r], latN+run.latN[r]
		run.Batch.Add(m.Batcher().Stats())
		if e := m.Engine(); e != nil {
			es := e.Stats()
			for p := range es.PathHits {
				run.eng.PathHits[p] += es.PathHits[p]
				run.eng.PathMisses[p] += es.PathMisses[p]
			}
			run.eng.CtrlCompressed += es.CtrlCompressed
			run.eng.CtrlFull += es.CtrlFull
			run.eng.Uncompressed += es.Uncompressed
		}
	}
	run.missing = max(run.expected-run.Delivered, 0)
	if latN > 0 {
		run.VirtualLatency = float64(latSum) / float64(latN)
	}
	if s.complete && run.missing > 0 {
		return run, fmt.Errorf("bench: %s: %d deliveries, want %d", s.name, run.Delivered, run.expected)
	}
	return run, nil
}

// cast schedules rank's cast of payload at virtual time at, owing a
// delivery to every member, the sender included.
func (run *groupRun) cast(rank int, at int64, payload []byte) {
	run.expected += len(run.members)
	if run.hier != nil {
		run.hier.Cast(rank, at, payload)
		return
	}
	m := run.members[rank]
	run.flat.Do(rank, at, func() { m.Cast(payload) })
}

// send schedules rank's send of payload to rank to (flat groups). A
// send the member refuses is counted missing, like one the link lost.
func (run *groupRun) send(rank int, at int64, to int, payload []byte) {
	run.expected++
	m := run.members[rank]
	run.flat.Do(rank, at, func() { _ = m.Send(to, payload) })
}

// traceIdentical runs the spec twice with its delivery trace on — once
// sequentially, once on workers goroutines — and reports whether the
// traces match byte for byte.
func traceIdentical(s groupSpec, workers int) (bool, error) {
	s.trace = true
	var traces [2]string
	for i, w := range []int{1, workers} {
		s.workers = w
		run, err := runGroup(s)
		if err != nil {
			return false, err
		}
		traces[i] = run.trace
	}
	return traces[0] != "" && traces[0] == traces[1], nil
}
