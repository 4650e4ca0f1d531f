package netsim

import (
	"math/rand"

	"ensemble/internal/event"
	"ensemble/internal/obs"
)

// Packet is what the network delivers to an endpoint.
type Packet struct {
	From event.Addr
	To   event.Addr
	Data []byte
	Cast bool
}

// Profile parameterizes a simulated network's behaviour. The zero value
// is a perfect zero-latency network; the constructors below give the
// paper's link models and a faulty network for reliability tests.
type Profile struct {
	// Latency is the one-way link latency in nanoseconds.
	Latency int64
	// Jitter adds a uniform random delay in [0, Jitter) per packet;
	// nonzero jitter reorders packets.
	Jitter int64
	// LossProb drops each packet independently with this probability.
	LossProb float64
	// DupProb delivers each (non-dropped) packet twice with this
	// probability.
	DupProb float64
}

// Ethernet100 models the paper's 100 Mbit Ethernet: about 80 µs one-way
// (§4.2: "the network latency, which is about 80 µs in this case").
func Ethernet100() Profile { return Profile{Latency: 80_000} }

// VIA models the Giganet VIA interface with 10 µs link latency (§4.2).
func VIA() Profile { return Profile{Latency: 10_000} }

// Lossy is a faulty network for exercising the reliability layers: it
// loses, reorders, and duplicates (the LossyNetwork of Fig. 2(b)).
func Lossy(lossProb float64) Profile {
	return Profile{Latency: 50_000, Jitter: 100_000, LossProb: lossProb, DupProb: lossProb / 2}
}

// Stats counts what the network did, for tests and reports. Once the
// simulator has drained, every transmission is accounted for:
//
//	Sent + Duplicated == Delivered + Dropped
//
// (each Send or per-receiver Cast attempt either delivers or drops, and
// each duplicate adds one more delivery-or-drop outcome). The invariant
// is counted at the transmission level: a batched frame is one Sent and
// one Delivered however many sub-packets it carries. Frames and
// SubPackets are informational — SubPackets/Frames is the observed
// coalescing efficiency (1.0 means batching bought nothing).
type Stats struct {
	Sent, Delivered, Dropped, Duplicated int64
	BytesSent                            int64
	// BytesOnWire counts bytes handed to the medium once per
	// transmission: a multicast frame counts its bytes once however many
	// receivers it fans out to (BytesSent counts per receiver). This is
	// the figure header compression shrinks — bytes/msg in the bench
	// tables is BytesOnWire over application messages.
	BytesOnWire int64
	// Frames counts delivered transmissions that were batched frames;
	// SubPackets counts the wires fanned out of them.
	Frames, SubPackets int64
	// GenMisses counts cross-frame deliveries that could not be decoded
	// without mirror state the receiver lacked (each answered with one
	// resync); StaleGenFrames counts pre-bump stragglers surfaced whole
	// as garbage; Resyncs counts resync packets sent back.
	GenMisses, StaleGenFrames, Resyncs int64
}

// netCounters is the live, atomically-updated form of Stats. The
// simulator/scheduler goroutine is the only writer, but benches and
// instrumentation goroutines snapshot mid-run, so every counter is an
// atomic and Snapshot reads outcomes before attempts (see Snapshot).
type netCounters struct {
	sent, delivered, dropped, duplicated obs.Counter
	bytesSent, bytesOnWire               obs.Counter
	frames, subPackets                   obs.Counter
	genMisses, staleGenFrames, resyncs   obs.Counter
}

// Net is the link model a Cluster's shards share: the behaviour
// profile, the reachability filter, the loss/duplication/delay draws of
// every transmission, and the traffic counters. Multicast fans out to
// every attached cluster endpoint except the sender, as Ethernet
// multicast would.
type Net struct {
	profile Profile
	stats   netCounters

	// filter, when set, decides reachability per (from, to) pair —
	// returning false drops the packet. Used to create partitions.
	filter func(from, to event.Addr) bool
}

// SetFilter installs (or clears, with nil) a reachability filter; use it
// to partition the network and heal it again.
func (n *Net) SetFilter(f func(from, to event.Addr) bool) { n.filter = f }

// Partition splits the attached endpoints into reachability islands:
// packets only flow between addresses in the same island. An endpoint
// not listed in any island is isolated — it can reach no one, not even
// other unlisted endpoints. (Before this was pinned down, every
// unlisted endpoint mapped to the same implicit island 0 and they could
// all reach each other, which silently turned "partition these three
// off" into "put these three in a room together".) Healing is
// SetFilter(nil).
func (n *Net) Partition(islands ...[]event.Addr) {
	island := map[event.Addr]int{}
	for i, is := range islands {
		for _, a := range is {
			island[a] = i + 1
		}
	}
	n.SetFilter(func(from, to event.Addr) bool {
		fi, fok := island[from]
		ti, tok := island[to]
		return fok && tok && fi == ti
	})
}

// Stats returns a snapshot of the traffic counters (alias of Snapshot,
// kept for existing call sites).
func (n *Net) Stats() Stats { return n.Snapshot() }

// Snapshot reads the traffic counters. It is safe to call from any
// goroutine while a run is in progress. The counters are read outcomes
// first (Delivered, Dropped) and attempts second (Sent, Duplicated): a
// delivery's Sent increment happens before its Delivered increment on
// the writer, so any outcome this order observes has its attempt
// counted too, and the mid-run invariant
//
//	Delivered + Dropped <= Sent + Duplicated
//
// holds for every snapshot; equality is reached once the simulator
// drains (see Stats).
func (n *Net) Snapshot() Stats {
	var s Stats
	s.Delivered = n.stats.delivered.Load()
	s.Dropped = n.stats.dropped.Load()
	s.Frames = n.stats.frames.Load()
	s.SubPackets = n.stats.subPackets.Load()
	s.Sent = n.stats.sent.Load()
	s.Duplicated = n.stats.duplicated.Load()
	s.BytesSent = n.stats.bytesSent.Load()
	s.BytesOnWire = n.stats.bytesOnWire.Load()
	s.GenMisses = n.stats.genMisses.Load()
	s.StaleGenFrames = n.stats.staleGenFrames.Load()
	s.Resyncs = n.stats.resyncs.Load()
	return s
}

// RegisterMetrics adopts the network's counters into reg under the
// "netsim/" prefix.
func (n *Net) RegisterMetrics(reg *obs.Registry) {
	sc := reg.Scope("netsim/")
	sc.Adopt("sent", &n.stats.sent)
	sc.Adopt("delivered", &n.stats.delivered)
	sc.Adopt("dropped", &n.stats.dropped)
	sc.Adopt("duplicated", &n.stats.duplicated)
	sc.Adopt("bytes_sent", &n.stats.bytesSent)
	sc.Adopt("bytes_on_wire", &n.stats.bytesOnWire)
	sc.Adopt("frames", &n.stats.frames)
	sc.Adopt("sub_packets", &n.stats.subPackets)
	sc.Adopt("gen_misses", &n.stats.genMisses)
	sc.Adopt("stale_gen_frames", &n.stats.staleGenFrames)
	sc.Adopt("resyncs", &n.stats.resyncs)
}

// sendVia transmits a point-to-point packet from the committing shard:
// draws come from the shard's RNG (so shards can commit in parallel
// without racing on one generator) and deliveries land on shard heaps.
// The data is copied: the caller may reuse its buffer. The draw order
// (filter, loss, delay, dup, dup delay — per receiver, in endpoint
// order) is fixed: it is part of the deterministic schedule.
func (n *Net) sendVia(rng *rand.Rand, sink *shard, from, to event.Addr, data []byte) {
	n.stats.sent.Inc()
	n.stats.bytesSent.Add(int64(len(data)))
	n.stats.bytesOnWire.Add(int64(len(data)))
	n.transmitVia(rng, sink, Packet{From: from, To: to, Data: append([]byte(nil), data...)})
}

// castVia transmits a multicast packet to every attached endpoint except
// the sender, in endpoint creation order. Loss is independent per
// receiver. Every receiver gets its own copy of data: transports decode
// in place, so a shared backing slice would let one member's decode
// corrupt another's packet.
func (n *Net) castVia(rng *rand.Rand, sink *shard, from event.Addr, data []byte) {
	n.stats.bytesOnWire.Add(int64(len(data)))
	for _, ep := range sink.c.eps {
		if ep.addr == from || !ep.listed {
			continue
		}
		n.stats.sent.Inc()
		n.stats.bytesSent.Add(int64(len(data)))
		n.transmitVia(rng, sink, Packet{From: from, To: ep.addr, Data: append([]byte(nil), data...), Cast: true})
	}
}

func (n *Net) transmitVia(rng *rand.Rand, sink *shard, p Packet) {
	if n.filter != nil && !n.filter(p.From, p.To) {
		n.stats.dropped.Inc()
		return
	}
	if n.profile.LossProb > 0 && rng.Float64() < n.profile.LossProb {
		n.stats.dropped.Inc()
		return
	}
	sink.deliver(p, n.delayVia(rng))
	if n.profile.DupProb > 0 && rng.Float64() < n.profile.DupProb {
		n.stats.duplicated.Inc()
		// The duplicate needs its own buffer too: both copies reach the
		// same endpoint, and an in-place decode of the first must not
		// mangle the second.
		q := p
		q.Data = append([]byte(nil), p.Data...)
		sink.deliver(q, n.delayVia(rng))
	}
}

func (n *Net) delayVia(rng *rand.Rand) int64 {
	d := n.profile.Latency
	if n.profile.Jitter > 0 {
		d += rng.Int63n(n.profile.Jitter)
	}
	return d
}
