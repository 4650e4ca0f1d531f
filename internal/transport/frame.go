package transport

// Per-peer wire batching (writev-style coalescing). The paper's bypass
// engine already defers non-critical work inside one member's path (§4,
// item 3); this file extends the idea across the member/transport
// boundary: instead of handing each outgoing wire image to the network
// one syscall-shaped call at a time, wires headed to the same
// destination are appended into a coalesced *frame* — length-prefixed
// sub-packets sharing one buffer — and the network sees a single
// transmit per destination per flush window.
//
// Classic frame wire format (EnableCrossFrame selects the delta frame
// format instead — header in xframe.go, sub grammar in delta.go):
//
//	magic     byte = FrameMagic
//	subs      repeated { uvarint length, length bytes }
//
// Safety ("Causing Communication Closure", Engelhardt & Moses): batching
// must coalesce, never reorder. The Batcher below guarantees something
// stronger than per-peer FIFO: it only ever appends to the *newest*
// frame in its queue and flushes frames in creation order, so the
// global emission order of wires is exactly the append order. A send to
// peer A between two casts therefore closes the open cast frame — the
// second cast starts a new one — rather than being overtaken by it.

import (
	"encoding/binary"

	"ensemble/internal/event"
)

// FrameMagic is the first byte of a batched frame. Members always emit
// data packets as frames (even a frame of one sub-packet), so a
// substrate that sees this magic knows the packet came from a Batcher;
// raw packets (control traffic, hand-crafted test packets) are passed
// through untouched.
const FrameMagic = 0xB7

// DefaultFrameBytes is the default size threshold: a frame is flushed
// rather than grown past roughly one MTU's worth of sub-packets.
const DefaultFrameBytes = 1400

// IsFrame reports whether data begins a batched frame — classic or delta
// (xframe.go). Pair it with FrameWalker.WalkLink, which decodes both;
// walkFrame below decodes only the classic format.
func IsFrame(data []byte) bool {
	return len(data) > 0 && (data[0] == FrameMagic || data[0] == XFrameMagic)
}

// walkFrame fans a batched frame out into its sub-packets, calling fn
// once per sub-packet in order, and returns the number of sub-packets
// surfaced. Malformed framing is never dropped silently: a truncated
// length prefix or a declared length overrunning the buffer surfaces
// the remaining bytes as one final (garbage) sub-packet, and a
// zero-length sub-packet surfaces as an empty one — downstream decoders
// count both as stray packets, exactly as they would a malformed raw
// packet. A non-frame surfaces whole, as one sub-packet.
func walkFrame(data []byte, fn func(sub []byte)) int {
	if len(data) == 0 || data[0] != FrameMagic {
		fn(data)
		return 1
	}
	subs := 0
	off := 1
	for off < len(data) {
		n, k := binary.Uvarint(data[off:])
		if k <= 0 {
			// Truncated or overflowing length prefix: the tail is
			// undecodable as framing — hand it over as-is.
			fn(data[off:])
			return subs + 1
		}
		off += k
		end := off + int(n)
		if end < off || end > len(data) {
			// Declared length overruns the buffer.
			fn(data[off:])
			return subs + 1
		}
		// Three-index slice: the sub's capacity ends at its length, so a
		// receiver that appends to (rather than reslices) the sub cannot
		// scribble over the next sub's bytes in the shared frame buffer.
		fn(data[off:end:end])
		subs++
		off = end
	}
	return subs
}

// BatchSink consumes flushed frames. core.Network's transmit half
// (netsim.Endpoint, netsim.UDPNet) satisfies it.
type BatchSink interface {
	Send(from, to event.Addr, data []byte)
	Cast(from event.Addr, data []byte)
}

// FlushCause says why a flush happened — the three triggers the
// batching design names (size threshold, owner's entry end, scheduler
// drain barrier) plus explicit calls from tests and mode switches.
// BatcherStats counts flushes per cause, which is the figure that shows
// *where* coalescing windows actually close on a given workload.
type FlushCause uint8

const (
	// FlushExplicit is a direct Flush() call (tests, mode switches,
	// deployments forcing wires out before blocking).
	FlushExplicit FlushCause = iota
	// FlushSize is the size-threshold trigger: a frame would outgrow
	// maxBytes (immediate mode counts here too — its threshold is
	// "every wire").
	FlushSize
	// FlushEntryEnd is the owner's end-of-entry trigger: core.Member
	// flushes when its outermost entry point returns.
	FlushEntryEnd
	// FlushBarrier is the scheduler drain-barrier trigger: the cluster
	// (or UDP burst loop) flushes each member at the end of its drain.
	FlushBarrier
)

// BatcherStats counts batching activity, for tests and benchmarks.
// SubPackets/Frames is the coalescing efficiency (1.0 = no batching).
type BatcherStats struct {
	// SubPackets counts wires appended.
	SubPackets int64
	// Frames counts frames handed to the sink.
	Frames int64
	// Flushes counts Flush calls that emitted at least one frame.
	Flushes int64
	// SizeFlushes, EntryEndFlushes, and BarrierFlushes split Flushes by
	// cause; the remainder (Flushes minus the three) were explicit.
	SizeFlushes, EntryEndFlushes, BarrierFlushes int64
	// DeltaSubs counts wires that went out field-delta-encoded against
	// their predecessor (always 0 with delta disabled).
	DeltaSubs int64
	// PrefixSubs counts wires that went out as shared-prefix subs — the
	// shape-agnostic fallback for wires the field delta cannot parse
	// (always 0 with delta disabled).
	PrefixSubs int64
	// FrameBytes counts frame bytes handed to the sink — the batcher's
	// own bytes-on-wire figure, for substrates that do not keep one.
	FrameBytes int64
	// XFrames counts delta (generation-tagged 0xB9) frames created;
	// XFirstFull and XFirstDelta split them by whether the first sub rode
	// full or encoded against the previous frame's last sub — the figure
	// that says how often the cross-frame base actually paid off
	// (XFirstDelta is 0 with chaining off: every frame is an anchor).
	XFrames, XFirstFull, XFirstDelta int64
	// GenBumps counts local generation bumps (view installs, peer
	// rebinds); ResyncBumps counts bumps forced by a peer's resync packet
	// (a detected drop or a restarted receiver).
	GenBumps, ResyncBumps int64
	// Holds counts frames the adaptive flush controller kept pending at a
	// flush point that would otherwise have emitted them.
	Holds int64
}

// Add accumulates o into s — for harnesses aggregating the per-member
// batching counters of a whole group.
func (s *BatcherStats) Add(o BatcherStats) {
	s.SubPackets += o.SubPackets
	s.Frames += o.Frames
	s.Flushes += o.Flushes
	s.SizeFlushes += o.SizeFlushes
	s.EntryEndFlushes += o.EntryEndFlushes
	s.BarrierFlushes += o.BarrierFlushes
	s.DeltaSubs += o.DeltaSubs
	s.PrefixSubs += o.PrefixSubs
	s.FrameBytes += o.FrameBytes
	s.XFrames += o.XFrames
	s.XFirstFull += o.XFirstFull
	s.XFirstDelta += o.XFirstDelta
	s.GenBumps += o.GenBumps
	s.ResyncBumps += o.ResyncBumps
	s.Holds += o.Holds
}

// batchFrame is one pending coalesced frame: a cast frame fans out to
// the whole group at flush time, a peer frame goes to one destination.
type batchFrame struct {
	cast bool
	to   event.Addr
	subs int
	buf  []byte
	// base is the previous sub's parsed header — the delta base for the
	// next append. Tail-only append makes this well defined: only the
	// newest frame ever grows, so one base per frame is the whole state.
	base subMeta
	// st is the destination chain's state (set when delta or adaptive
	// flush is on) and born the frame's creation time (adaptive
	// flush only) — cached here so flush decisions skip the map.
	st   *peerState
	born int64
}

// Batcher coalesces outgoing wire images into per-destination frames.
// It is single-goroutine, like the member that owns it, and recycles
// its frame buffers so the steady-state hot path allocates nothing
// (the sink consumes frame data during the call, per the Network
// contract). Flush triggers: (a) the size threshold — a frame that
// would outgrow maxBytes flushes everything first; (b) the owner's
// end-of-sweep — core.Member flushes when its outermost entry point
// returns; (c) an explicit Flush at a scheduler barrier — the cluster
// harness flushes each member at the end of its drain phase.
type Batcher struct {
	sink      BatchSink
	from      event.Addr
	maxBytes  int
	immediate bool
	// delta selects the delta frame format (magic XFrameMagic): frames
	// carry generation-tagged headers and each sub is encoded against its
	// predecessor (delta.go, xframe.go). nPrefix is the epoch prefix
	// length the sub parser expects. chain lets a frame's first sub
	// encode against the previous frame's last sub to the same
	// destination; with it off every frame is an anchor.
	delta   bool
	nPrefix int
	chain   bool
	// peers holds the per-chain generation/shadow/cadence state, keyed by
	// destination (one shared entry for the cast chain).
	peers map[xKey]*peerState
	// adaptive enables the per-destination flush controller: now is the
	// owner's clock (xframe.go holds its tuning). holdObs, when set,
	// observes each emitted frame's queue residency (emit time minus
	// creation time, ns) — the hold-duration histogram feed.
	adaptive bool
	now      func() int64
	holdObs  func(int64)

	frames []batchFrame
	free   [][]byte
	// prev holds a copy of the last wire appended to the newest frame —
	// the base for shared-prefix encoding. One buffer suffices because
	// only the newest frame is ever appendable; tail() empties it when a
	// fresh frame starts.
	prev  []byte
	stats BatcherStats
}

// NewBatcher builds a batcher for the member at from, flushing frames
// into sink. maxBytes <= 0 selects DefaultFrameBytes.
func NewBatcher(sink BatchSink, from event.Addr, maxBytes int) *Batcher {
	if maxBytes <= 0 {
		maxBytes = DefaultFrameBytes
	}
	return &Batcher{sink: sink, from: from, maxBytes: maxBytes}
}

// SetImmediate switches coalescing off: every wire is flushed as its
// own single-sub frame during the call that appended it. This is the
// ablation knob for measuring what batching buys; the wire format is
// unchanged, so receivers cannot tell the difference.
func (b *Batcher) SetImmediate(on bool) {
	b.Flush()
	b.immediate = on
}

// DisableDelta restores the classic frame format — the ablation knob for
// measuring what delta compression buys. Pending frames are flushed
// first, so a frame is never half one format; per-chain generation state
// is kept, so re-enabling resumes where the chains left off.
func (b *Batcher) DisableDelta() {
	b.Flush()
	b.delta = false
}

// DisableCrossFrame turns chaining off while keeping the delta frame
// format: frames still carry 0xB9 headers, but no first sub ever encodes
// against the previous frame, so every frame is an anchor — the ablation
// knob that isolates what chaining the delta state across frame
// boundaries buys. Pending frames are flushed first. The chain shadows
// keep tracking the last sub sent (the receiver's mirror still advances
// on every frame), so re-enabling chaining resumes consistently.
func (b *Batcher) DisableCrossFrame() {
	b.Flush()
	b.chain = false
}

// Stats returns a snapshot of the batching counters.
func (b *Batcher) Stats() BatcherStats { return b.stats }

// Pending reports the number of frames awaiting a flush.
func (b *Batcher) Pending() int { return len(b.frames) }

// Send appends a point-to-point wire image headed to peer to. The data
// is copied during the call; the caller may reuse its buffer.
func (b *Batcher) Send(to event.Addr, wire []byte) { b.append(false, to, wire) }

// Cast appends a multicast wire image. The data is copied during the
// call.
func (b *Batcher) Cast(wire []byte) { b.append(true, 0, wire) }

func (b *Batcher) append(cast bool, to event.Addr, wire []byte) {
	b.stats.SubPackets++
	need := 1 + binary.MaxVarintLen32 + len(wire)
	f := b.tail(cast, to, need)
	if b.adaptive && f.st != nil {
		// Feed the chain's append-cadence estimate: a fast EWMA of the
		// inter-append gap, the signal the flush controller holds on.
		now := b.now()
		if f.st.lastAppend >= 0 {
			gap := now - f.st.lastAppend
			if f.st.gapEWMA < 0 {
				f.st.gapEWMA = gap
			} else {
				f.st.gapEWMA = (3*f.st.gapEWMA + gap) / 4
			}
		}
		f.st.lastAppend = now
	}
	if b.delta {
		b.appendDelta(f, wire)
	} else {
		f.buf = binary.AppendUvarint(f.buf, uint64(len(wire)))
		f.buf = append(f.buf, wire...)
	}
	f.subs++
	if b.immediate || len(f.buf) >= b.maxBytes {
		b.FlushFor(FlushSize)
	}
}

// appendDelta appends wire to a delta-format frame: field-delta-encoded
// when both it and the frame's previous sub parse as compressed images
// and the seqno delta fits; otherwise a shared-prefix sub when enough
// leading bytes match the previous wire (acks and gossip repeat their
// headers even though the coder has no model of their fields); a
// flagged full sub as the last resort. Either way the wire becomes the
// next delta base (an unparseable wire clears the field base, so a
// following delta sub can never refer past an opaque one) and the next
// prefix base.
func (b *Batcher) appendDelta(f *batchFrame, wire []byte) {
	cur := parseSub(wire, b.nPrefix)
	encoded := false
	if cur.ok && f.base.ok {
		f.buf, encoded = appendDeltaSub(f.buf, wire, cur, f.base, b.nPrefix, b.prev)
	}
	if encoded {
		b.stats.DeltaSubs++
	} else if n := commonPrefixLen(b.prev, wire); n >= minPrefixLen {
		s := commonSuffixLen(wire[n:], b.prev[n:])
		if s < minSuffixLen {
			s = 0
		}
		if s > 0 {
			f.buf = append(f.buf, subPrefixSuffix)
			f.buf = binary.AppendUvarint(f.buf, uint64(n))
			f.buf = binary.AppendUvarint(f.buf, uint64(s))
			f.buf = binary.AppendUvarint(f.buf, uint64(len(wire)-n-s))
			f.buf = append(f.buf, wire[n:len(wire)-s]...)
		} else {
			f.buf = append(f.buf, subPrefix)
			f.buf = binary.AppendUvarint(f.buf, uint64(n))
			f.buf = binary.AppendUvarint(f.buf, uint64(len(wire)-n))
			f.buf = append(f.buf, wire[n:]...)
		}
		b.stats.PrefixSubs++
		encoded = true
	} else {
		f.buf = append(f.buf, subFull)
		f.buf = binary.AppendUvarint(f.buf, uint64(len(wire)))
		f.buf = append(f.buf, wire...)
	}
	f.base = cur
	b.prev = append(b.prev[:0], wire...)
	if f.subs == 0 {
		// The first sub may encode against the previous frame's last sub
		// (the seeded base/prev): count how often that pays off versus
		// riding full.
		if encoded {
			b.stats.XFirstDelta++
		} else {
			b.stats.XFirstFull++
		}
	}
}

// tail returns the frame to append into: the newest frame when it has
// the same destination and room, a fresh frame at the end of the queue
// otherwise. Only the newest frame is ever appendable — that is what
// makes emission order equal append order (see the file comment).
func (b *Batcher) tail(cast bool, to event.Addr, need int) *batchFrame {
	if n := len(b.frames); n > 0 {
		f := &b.frames[n-1]
		if f.cast == cast && (cast || f.to == to) && len(f.buf)+need <= b.maxBytes {
			return f
		}
	}
	// The current tail stops being appendable: bank its trailing state as
	// the chain's cross-frame shadow before b.prev is repurposed.
	b.closeTail()
	var buf []byte
	if n := len(b.free); n > 0 {
		buf = b.free[n-1]
		b.free = b.free[:n-1]
	}
	var st *peerState
	if b.delta || b.adaptive {
		st = b.peer(cast, to)
	}
	b.prev = b.prev[:0] // a fresh frame has no in-frame predecessor...
	var base subMeta
	if b.delta {
		st.frameSeq++
		flag := byte(0)
		if cast {
			flag = xflagCast
		}
		buf = append(buf[:0], XFrameMagic, flag)
		buf = binary.AppendUvarint(buf, st.gen)
		buf = binary.AppendUvarint(buf, st.frameSeq)
		if b.chain && st.hasShadow && st.sinceFull < xAnchorEvery {
			// ...unless the chain's shadow carries one across the frame
			// boundary: the receiver's mirror holds the same bytes. Every
			// xAnchorEvery-th frame forgoes the shadow and rides a full
			// first sub — a self-contained anchor the receiver can adopt
			// statelessly, which bounds how many in-flight frames one
			// loss can render undecodable before the resync round trip
			// lands (see xframe.go).
			base = st.shadowMeta
			b.prev = append(b.prev[:0], st.shadow...)
			st.sinceFull++
		} else {
			st.sinceFull = 0
		}
		b.stats.XFrames++
	} else {
		buf = append(buf[:0], FrameMagic)
	}
	var born int64
	if b.adaptive {
		born = b.now()
	}
	b.frames = append(b.frames, batchFrame{cast: cast, to: to, buf: buf, base: base, st: st, born: born})
	return &b.frames[len(b.frames)-1]
}

// Flush hands every pending frame to the sink, in creation order, and
// recycles the buffers. Safe to call with nothing pending. Explicit
// flushes never hold: shutdown and mode switches need the wire empty.
func (b *Batcher) Flush() int { return b.FlushFor(FlushExplicit) }

// FlushFor is Flush with the trigger recorded in the per-cause stats;
// the member and scheduler flush points call it so the counters say
// where coalescing windows close. It returns the number of frames
// emitted: with the adaptive controller on, an entry-end or barrier
// flush may hold back a suffix of the queue (frames still small, young,
// and headed to chains appending at short gaps) — emitting only a
// prefix preserves the append-order emission guarantee, and held frames
// age out at the next flush point (the owner's sweep tick bounds that).
func (b *Batcher) FlushFor(cause FlushCause) int {
	if len(b.frames) == 0 {
		return 0
	}
	b.closeTail()
	cut := len(b.frames)
	if b.adaptive && (cause == FlushEntryEnd || cause == FlushBarrier) {
		now := b.now()
		for cut > 0 && b.holdable(&b.frames[cut-1], now) {
			cut--
		}
		b.stats.Holds += int64(len(b.frames) - cut)
	}
	if cut == 0 {
		return 0
	}
	var emitT int64
	if b.adaptive && b.holdObs != nil {
		emitT = b.now()
	}
	for i := 0; i < cut; i++ {
		f := &b.frames[i]
		if b.adaptive && b.holdObs != nil {
			// Queue residency: how long the adaptive controller let this
			// frame coalesce before it reached the wire.
			b.holdObs(emitT - f.born)
		}
		if f.cast {
			b.sink.Cast(b.from, f.buf)
		} else {
			b.sink.Send(b.from, f.to, f.buf)
		}
		b.stats.Frames++
		b.stats.FrameBytes += int64(len(f.buf))
		b.free = append(b.free, f.buf)
	}
	held := copy(b.frames, b.frames[cut:])
	for i := held; i < len(b.frames); i++ {
		b.frames[i] = batchFrame{}
	}
	b.frames = b.frames[:held]
	b.stats.Flushes++
	switch cause {
	case FlushSize:
		b.stats.SizeFlushes++
	case FlushEntryEnd:
		b.stats.EntryEndFlushes++
	case FlushBarrier:
		b.stats.BarrierFlushes++
	}
	return cut
}
