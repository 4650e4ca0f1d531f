package bench

import (
	"fmt"
	"time"

	"ensemble/internal/event"
	"ensemble/internal/obs"
	"ensemble/internal/perfcount"
	"ensemble/internal/transport"
)

// The sustained-throughput harness complements the code-latency tables:
// where Table 1 times individual segments with the network factored out,
// this drives back-to-back steady-state cast rounds — submit, marshal,
// wire, unmarshal, deliver, plus the periodic housekeeping sweeps — and
// reports messages per second and allocation pressure. It is the
// regression gate for the paper's first optimization (§4, item 1:
// avoiding garbage-collection cycles): the steady-state data path is
// expected to run allocation-free.

// BatchMode selects how outgoing wires reach the network in a measured
// run — the wire-format ladder, one rung per mode: one transmission per
// wire (Immediate — the ablation), classic 0xB7 coalesced frames
// (Batched), 0xB9 delta frames with chaining off so every frame is an
// anchor (BatchedDelta — see transport/delta.go), or 0xB9 delta frames
// chained across frame boundaries plus the adaptive flush controller
// (BatchedCross, the production default for members — see
// transport/xframe.go).
type BatchMode int

const (
	Immediate BatchMode = iota
	Batched
	BatchedDelta
	BatchedCross
)

func (m BatchMode) String() string {
	switch m {
	case Batched:
		return "batched"
	case BatchedDelta:
		return "batched+delta"
	case BatchedCross:
		return "batched+xframe"
	default:
		return "immediate"
	}
}

// ThroughputRunner drives steady-state cast rounds between a rank-0
// sender and a rank-1 receiver of the two-member pair under one
// configuration. Construction (stack build, bypass compilation) is
// separated from Run so benchmarks can exclude setup from the timed
// region.
type ThroughputRunner struct {
	p       *pair
	payload []byte
	rounds  int

	// Batched modes: outgoing wires coalesce in per-member Batchers that
	// are flushed every flushEvery rounds (and at the end of every Run),
	// putting the frame encode and the walker decode on the measured
	// path.
	mode  BatchMode
	batch [2]*transport.Batcher

	// Observed runners carry the full obs substrate on the measured
	// path: every emitted wire bumps a registry counter and lands a
	// flight record. This is the configuration the overhead gate (Gate 4)
	// measures — it must stay allocation-free and within 3% of the
	// unobserved throughput.
	obsReg  *obs.Registry
	obsRec  *obs.Recorder
	obsOut  [2]*obs.Counter
	obsHist [2]*obs.Histogram
}

func (r *ThroughputRunner) batched() bool { return r.mode != Immediate }

// flushEvery is the batched runner's flush period in rounds: the steady
// state gets a real coalescing factor (≥ 8 subs per data frame) while
// flow-control feedback stays timely.
const flushEvery = 8

// NewThroughputRunner builds the two-member pair for cfg with wires
// reaching the pump as mode says. In the batched modes wires append
// into per-member Batchers and frames are walked back apart at the
// receiver. The harness's bare wires carry no epoch prefix, so
// BatchedDelta runs its codec with prefix arity 0. BatchedCross is
// rejected: its adaptive flush needs a clock the harness does not
// have. observed wires the metrics registry and flight recorder onto
// the emit path (see ThroughputRunner.obsReg).
func NewThroughputRunner(cfg Config, names []string, size int, mode BatchMode, observed bool) (*ThroughputRunner, error) {
	if mode == BatchedCross {
		return nil, fmt.Errorf("bench: %s needs an adaptive-flush clock the two-member harness lacks", mode)
	}
	p, err := newPair(cfg, names)
	if err != nil {
		return nil, err
	}
	r := &ThroughputRunner{p: p, payload: make([]byte, size), mode: mode}
	if observed {
		r.obsReg = obs.NewRegistry()
		r.obsRec = obs.NewRecorder(2, 1024)
		for m := range r.obsOut {
			sc := r.obsReg.Scope(fmt.Sprintf("member%d/", m))
			r.obsOut[m] = sc.Counter("wires_out")
			r.obsHist[m] = sc.Histogram("wire_bytes")
		}
		r.obsReg.Func("delivered", func() int64 { return int64(p.delivered) })
		r.obsReg.Func("rounds", func() int64 { return int64(r.rounds) })
	}
	p.emit = r.emitters()
	return r, nil
}

// pumpSink adapts the wirePump to the Batcher's sink contract for the
// two-member harness (addresses are the member indexes 0 and 1). The
// pump copies frame data during send, which is exactly the contract the
// Batcher requires before it recycles the frame buffer.
type pumpSink struct{ pump *wirePump }

func (s pumpSink) Send(from, to event.Addr, data []byte) { s.pump.send(int(to), data) }
func (s pumpSink) Cast(from event.Addr, data []byte)     { s.pump.send(1-int(from), data) }

// emitters returns the per-member wire emitters: the pair's own pump
// sends when unbatched, per-member Batchers when batched, each wrapped
// in the obs instrumentation when observed.
func (r *ThroughputRunner) emitters() [2]func(to int, wire []byte) {
	emit := r.p.emit
	if r.batched() {
		for m := range emit {
			b := transport.NewBatcher(pumpSink{pump: r.p.pump}, event.Addr(m), 0)
			if r.mode == BatchedDelta {
				b.EnableCrossFrame(0) // bare wires: no epoch prefix
				b.DisableCrossFrame()
			}
			r.batch[m] = b
			emit[m] = func(to int, wire []byte) { b.Send(event.Addr(to), wire) }
		}
	}
	if r.obsReg == nil {
		return emit
	}
	// Observed runner: count, flight-record, and histogram every emitted
	// wire. All three operations are allocation-free (atomic adds,
	// fixed-ring store, fixed-bucket add), so the observed hot path
	// stays at 0 allocs/op — that is the point.
	for m := range emit {
		inner := emit[m]
		cnt := r.obsOut[m]
		hist := r.obsHist[m]
		trk := r.obsRec.Track(m)
		emit[m] = func(to int, wire []byte) {
			cnt.Inc()
			hist.Observe(int64(len(wire)))
			trk.Record(int64(r.rounds), obs.KindPktOut, obs.DirDn, 0, cnt.Load())
			inner(to, wire)
		}
	}
	return emit
}

// flush alternates the two members' batchers until neither has pending
// frames, because flushing one member's frames can make the other emit
// (acknowledgments, credit).
func (r *ThroughputRunner) flush() {
	for r.batch[0].Pending()+r.batch[1].Pending() > 0 {
		r.batch[0].Flush()
		r.batch[1].Flush()
	}
}

// Run drives n cast rounds, sweeping the housekeeping timers every 256
// rounds as the latency harness does (stability gossip keeps the
// retransmission buffers garbage-collected during long runs). In
// batched mode the batchers flush every flushEvery rounds and once more
// at the end, so every submitted round is delivered before Run returns.
func (r *ThroughputRunner) Run(n int) {
	for i := 0; i < n; i++ {
		r.p.ep[0].Cast(r.payload)
		r.rounds++
		if r.batched() && r.rounds%flushEvery == 0 {
			r.flush()
		}
		if r.rounds%256 == 0 {
			r.p.sweep(int64(r.rounds) * int64(1e6))
			if r.batched() {
				r.flush()
			}
		}
	}
	if r.batched() {
		r.flush()
	}
}

// BatchStats reports the aggregate batching counters across both
// members (zero when the runner is unbatched).
func (r *ThroughputRunner) BatchStats() transport.BatcherStats {
	if !r.batched() {
		return transport.BatcherStats{}
	}
	st := r.batch[0].Stats()
	st.Add(r.batch[1].Stats())
	return st
}

// Delivered reports application deliveries observed so far (two per
// round for stacks with self-delivery, one otherwise).
func (r *ThroughputRunner) Delivered() int { return r.p.delivered }

// Metrics snapshots the observed runner's registry (empty when the
// runner was built without observability).
func (r *ThroughputRunner) Metrics() obs.Snapshot {
	if r.obsReg == nil {
		return nil
	}
	return r.obsReg.Snapshot()
}

// FlightRecorder exposes the observed runner's recorder (nil when the
// runner was built without observability).
func (r *ThroughputRunner) FlightRecorder() *obs.Recorder { return r.obsRec }

// Throughput is one sustained run's result.
type Throughput struct {
	Config    Config
	Layers    int
	Size      int
	Rounds    int
	Delivered int
	Wall      time.Duration
	// MsgsPerSec counts sender cast rounds completed per second (each
	// round carries one payload end to end).
	MsgsPerSec float64
	// AllocsPerMsg and AllocBytesPerMsg are the steady-state allocation
	// pressure per round; the zero-allocation goal is AllocsPerMsg < 1.
	AllocsPerMsg     float64
	AllocBytesPerMsg float64
	GCCycles         uint32
	// Mode reports how wires reached the pump; SubsPerFrame is the
	// observed coalescing factor (0 when unbatched). In the batched
	// modes BytesPerMsg is frame bytes on the wire per cast round —
	// the figure delta compression (BatchedDelta) shrinks.
	Mode         BatchMode
	SubsPerFrame float64
	BytesPerMsg  float64
}

// MeasureThroughput runs `rounds` steady-state cast rounds of
// `size`-byte messages on a NewThroughputRunner and reports throughput
// plus allocation counters. A warmup of 520 rounds runs first so pools
// and windows reach steady state before the bracketed measurement.
func MeasureThroughput(cfg Config, names []string, size, rounds int, mode BatchMode, observed bool) (Throughput, error) {
	r, err := NewThroughputRunner(cfg, names, size, mode, observed)
	if err != nil {
		return Throughput{}, err
	}
	r.Run(520) // past the 256-round sweep boundary, see bench_test.go
	base := r.Delivered()
	baseBytes := r.BatchStats().FrameBytes
	smp, err := perfcount.Measure(func() error { r.Run(rounds); return nil })
	if err != nil {
		return Throughput{}, err
	}
	got := r.Delivered() - base
	if got < rounds {
		return Throughput{}, fmt.Errorf("bench: %d rounds but only %d deliveries", rounds, got)
	}
	n := float64(rounds)
	tp := Throughput{
		Config:           cfg,
		Layers:           len(names),
		Size:             size,
		Rounds:           rounds,
		Delivered:        got,
		Wall:             smp.Wall,
		MsgsPerSec:       n / smp.Wall.Seconds(),
		AllocsPerMsg:     float64(smp.Mallocs) / n,
		AllocBytesPerMsg: float64(smp.AllocBytes) / n,
		GCCycles:         smp.GCCycles,
		Mode:             mode,
	}
	if bs := r.BatchStats(); bs.Frames > 0 {
		tp.SubsPerFrame = float64(bs.SubPackets) / float64(bs.Frames)
		tp.BytesPerMsg = float64(bs.FrameBytes-baseBytes) / n
	}
	return tp, nil
}
