package bench

import (
	"encoding/binary"
	"fmt"
	"time"

	"ensemble/internal/core"
	"ensemble/internal/netsim"
	"ensemble/internal/obs"
	"ensemble/internal/stack"
	"ensemble/internal/transport"
)

// The N-member harness complements the two-node throughput pump: it
// drives full protocol stacks over the simulated network with one
// goroutine per member, so the paper's figures can be regenerated for
// group sizes above two — and, run under the race detector, it is the
// standing proof that the pooled hot path of the two-node numbers is
// safe when the members actually execute concurrently.

// NetThroughput is one N-member sustained run's result.
type NetThroughput struct {
	Config  Config
	Members int
	Size    int
	// Rounds is the number of cast rounds; every member casts once per
	// round, so Members*Rounds application messages enter the system.
	Rounds int
	// Delivered counts application cast deliveries across all members
	// (each cast is delivered to all Members members, sender included).
	Delivered int
	Wall      time.Duration
	// MsgsPerSec is cast submissions completed per wall-clock second
	// across the whole group.
	MsgsPerSec float64
	// VirtualLatency is the mean virtual time from cast submission to
	// application delivery, in nanoseconds of simulated time — the
	// Figure-6 quantity, but measured end to end over the simulated
	// link rather than with the network factored out.
	VirtualLatency float64
	// Net is the simulated network's accounting for the run.
	Net netsim.Stats
	// Mode reports how the members' wires reached the network: immediate
	// single-sub frames (the ablation), classic coalesced frames, 0xB9
	// delta frames with chaining off, or chained 0xB9 delta frames with
	// the adaptive flush controller (the member default). SubsPerFrame is the
	// observed coalescing factor.
	Mode         BatchMode
	SubsPerFrame float64
	// Batch aggregates every member's Batcher counters after the run —
	// the source for the wire table's first-sub full-vs-delta ratio and
	// flush-cause breakdown.
	Batch transport.BatcherStats
	// BytesPerMsg is bytes on the wire per application cast during the
	// data phase — BytesOnWire snapshotted just after the last submission
	// round, over Members*Rounds casts. The snapshot window exists
	// because the run's fixed 2 s stability tail is almost entirely
	// gossip (full-format wires that delta compression cannot shrink)
	// and would dilute the per-message figure the compression gate
	// tracks. WindowBytesOnWire is the raw snapshot.
	BytesPerMsg       float64
	WindowBytesOnWire int64
	// Metrics and Recorder are filled by the observed variant only: the
	// unified registry snapshot (per-member, netsim, pool, MACH bypass
	// counters) and the flight recorder holding the run's event records.
	Metrics  obs.Snapshot
	Recorder *obs.Recorder
}

// MeasureNetThroughput drives `rounds` cast rounds of `size`-byte
// messages (min 8: the first 8 bytes carry the virtual-time send stamp)
// through an N-member group over a simulated 100Mb Ethernet. IMP and
// FUNC run plain stacks; MACH runs the machine-generated bypass.
// workers > 1 runs the members on that many goroutines between
// scheduler barriers; the delivery schedule is identical either way
// (see netsim.Cluster), so concurrent runs measure the same traffic.
// The batched modes leave the members' wire batching on and turn on the
// adaptive quantum, so drains see enough traffic to coalesce —
// BatchedCross is the member default (cross-frame delta chains plus the
// adaptive flush controller), BatchedDelta keeps the 0xB9 format with
// chaining off (every frame an anchor) and burst-end flushes, Batched
// runs the classic frame format.
// Immediate is the ablation — every wire is its own single-sub classic
// frame under the fixed default quantum.
func MeasureNetThroughput(cfg Config, names []string, members, size, rounds int, seed int64, workers int, mode BatchMode) (NetThroughput, error) {
	return measureNetThroughput(cfg, names, members, size, rounds, seed, workers, mode, 0)
}

// MeasureObservedNetThroughput is MeasureNetThroughput with the full
// obs substrate enabled on the group before traffic flows: every
// member exports its counters into one registry and records its flight
// onto a per-rank track of flightRing records. The result carries the
// snapshot and the recorder. This is the observability-on side of the
// Gate 4 overhead comparison and the workload behind `make flight`.
func MeasureObservedNetThroughput(cfg Config, names []string, members, size, rounds int, seed int64, workers int, mode BatchMode) (NetThroughput, error) {
	return measureNetThroughput(cfg, names, members, size, rounds, seed, workers, mode, flightRing)
}

// flightRing is the default per-member flight ring: large enough that a
// bench-sized run is captured whole, small enough to stay cache-cheap
// (24 bytes per record).
const flightRing = 1 << 14

func measureNetThroughput(cfg Config, names []string, members, size, rounds int, seed int64, workers int, mode BatchMode, ring int) (NetThroughput, error) {
	if members < 2 {
		return NetThroughput{}, fmt.Errorf("bench: net throughput needs >= 2 members, got %d", members)
	}
	if size < 8 {
		size = 8
	}
	// Member-local accumulators, indexed by rank: each member's handler
	// runs on its own goroutine and may only touch its own slot.
	delivered := make([]int, members)
	latSum := make([]int64, members)
	latN := make([]int64, members)
	var g *core.ClusterGroup
	build := func(rank int) core.Handlers {
		return core.Handlers{
			OnCast: func(origin int, payload []byte) {
				delivered[rank]++
				// Latency counts only remote deliveries: self-delivery is
				// a local loop and would dilute the over-the-link figure.
				if origin != rank && len(payload) >= 8 {
					t0 := int64(binary.LittleEndian.Uint64(payload))
					latSum[rank] += g.Eps[rank].Now() - t0
					latN[rank]++
				}
			},
		}
	}
	var err error
	switch cfg {
	case IMP:
		g, err = core.NewClusterGroup(members, netsim.Ethernet100(), seed, names, stack.Imp, build)
	case FUNC:
		g, err = core.NewClusterGroup(members, netsim.Ethernet100(), seed, names, stack.Func, build)
	case MACH:
		g, err = core.NewOptimizedClusterGroup(members, netsim.Ethernet100(), seed, names, stack.Func, build)
	default:
		return NetThroughput{}, fmt.Errorf("bench: config %s has no N-member harness", cfg)
	}
	if err != nil {
		return NetThroughput{}, err
	}
	// The modes are rungs of the wire-format ladder, carved out of the
	// member default (cross-frame delta + adaptive flush) by ablation:
	// BatchedCross leaves the default untouched; BatchedDelta turns
	// chaining off (0xB9, chaining off) with a plain burst-end flush;
	// Batched strips delta compression entirely; Immediate additionally
	// gives every sub its own frame.
	switch mode {
	case BatchedCross:
		// Member defaults: 0xB9 chains + adaptive flush stay on.
	case BatchedDelta:
		for _, m := range g.Members {
			m.Batcher().DisableCrossFrame()
			m.Batcher().DisableAdaptiveFlush()
		}
	case Batched:
		for _, m := range g.Members {
			m.Batcher().DisableDelta()
			m.Batcher().DisableAdaptiveFlush()
		}
	case Immediate:
		for _, m := range g.Members {
			m.Batcher().DisableDelta()
			m.Batcher().DisableAdaptiveFlush()
			m.Batcher().SetImmediate(true)
		}
	}
	if mode != Immediate {
		// The floor spans two 200 µs submission rounds, so a drain always
		// has at least two of a member's casts to coalesce; the controller
		// widens the window further when traffic thins out.
		g.Cluster.EnableAdaptiveQuantum(400_000, 100_000_000)
	}
	var reg *obs.Registry
	var rec *obs.Recorder
	if ring > 0 {
		reg = obs.NewRegistry()
		rec = obs.NewRecorder(members, ring)
		g.EnableObs(reg, rec)
	}
	// Every member casts once per round, rounds spaced 200 µs apart so
	// successive rounds overlap in flight on the 80 µs link.
	const interval = int64(200_000)
	for i := 0; i < rounds; i++ {
		at := int64(i) * interval
		for r := 0; r < members; r++ {
			r := r
			g.Do(r, at, func() {
				buf := make([]byte, size)
				binary.LittleEndian.PutUint64(buf, uint64(g.Eps[r].Now()))
				g.Members[r].Cast(buf)
			})
		}
	}
	// Snapshot bytes-on-wire just past the data phase: 150 ms after the
	// last submission clears the adaptive quantum's 100 ms ceiling, so
	// every data frame has flushed, while the stability tail has barely
	// started. (The snapshot callback reads a counter only — it cannot
	// perturb member state or the RNG, so determinism holds.)
	var windowBytes int64
	g.Cluster.AtVirtual(int64(rounds)*interval+int64(150e6), func() {
		windowBytes = g.Cluster.Net().Stats().BytesOnWire
	})
	// Run past the last submission long enough for stability gossip to
	// flush every retransmission buffer.
	deadline := int64(rounds)*interval + int64(2e9)
	t0 := time.Now()
	if workers > 1 {
		g.RunConcurrent(deadline, workers)
	} else {
		g.Run(deadline)
	}
	wall := time.Since(t0)

	res := NetThroughput{
		Config:            cfg,
		Members:           members,
		Size:              size,
		Rounds:            rounds,
		Wall:              wall,
		MsgsPerSec:        float64(members*rounds) / wall.Seconds(),
		Net:               g.Cluster.Net().Stats(),
		Mode:              mode,
		WindowBytesOnWire: windowBytes,
		BytesPerMsg:       float64(windowBytes) / float64(members*rounds),
		Recorder:          rec,
	}
	for _, m := range g.Members {
		res.Batch.Add(m.Batcher().Stats())
	}
	if reg != nil {
		res.Metrics = reg.Snapshot()
	}
	if res.Net.Frames > 0 {
		res.SubsPerFrame = float64(res.Net.SubPackets) / float64(res.Net.Frames)
	}
	var lsum, ln int64
	for r := 0; r < members; r++ {
		res.Delivered += delivered[r]
		lsum += latSum[r]
		ln += latN[r]
	}
	if ln > 0 {
		res.VirtualLatency = float64(lsum) / float64(ln)
	}
	if want := members * members * rounds; res.Delivered < want {
		return res, fmt.Errorf("bench: %d deliveries, want %d (reliability failed on a loss-free link)",
			res.Delivered, want)
	}
	return res, nil
}
