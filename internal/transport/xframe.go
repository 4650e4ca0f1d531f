package transport

// The delta frame format — generation-tagged frames whose delta state
// chains across frame boundaries per destination — plus the adaptive
// per-destination flush controller. The wire has two frame formats:
// classic 0xB7 frames (the ablation baseline, frame.go) and these 0xB9
// frames. The sender keeps a per-destination shadow of the last sub it
// emitted, stamps every frame with a (generation, frame-sequence)
// header, and lets the first sub delta against the previous frame's last
// sub. The receiver keeps the mirror per (from, to, cast) link and only
// applies the cross-frame base when the header proves continuity: same
// generation, exactly the next frame sequence. A frame whose first sub
// rides full is an anchor: self-contained, decodable with no mirror.
//
// Delta frame wire format:
//
//	magic    byte = XFrameMagic
//	flags    byte (0x01 = cast chain; other bits reserved, must be 0)
//	gen      uvarint — the sender's generation for this chain
//	frameSeq uvarint — 1-based frame counter within the generation
//	subs     the delta sub grammar (see delta.go); the first sub may be
//	         delta- or prefix-encoded against the cross-frame base
//	         instead of riding full
//
// Safety over loss and reordering is by construction (the communication-
// closure discipline of "Causing Communication Closure", PAPERS.md): a
// frame that does not extend the receiver's mirror exactly is decoded
// statelessly — fine when its first sub is full, a single garbage sub
// otherwise (stray-packet accounting, repaired by the stack's NAK
// layer) — and the receiver answers with a resync packet:
//
//	magic byte = ResyncMagic, flags byte (0x01 = cast chain), uvarint gen
//
// The sender bumps the chain's generation when the resync names its
// current generation (so one loss triggers one bump, not a storm per
// duplicate resync), on view install (core.Member), and on peer rebind
// (UDPNet) — after a bump the next frame starts a fresh generation with
// a full first sub, which any receiver adopts statelessly. Frames from
// a generation older than the receiver's mirror are stale by definition
// (pre-bump stragglers) and land whole in stray accounting with no
// resync answer.
//
// The adaptive flush controller rides the same per-destination state:
// instead of unconditionally emitting at burst end, a frame whose
// destination has been receiving appends at short observed gaps may be
// held — briefly, and only while small — so near-future appends
// coalesce into it. Holding only ever applies to a suffix of the frame
// queue, so the Batcher's global guarantee (emission order == append
// order) is untouched; size-threshold and explicit flushes always emit
// everything.

import (
	"encoding/binary"

	"ensemble/internal/event"
)

// XFrameMagic is the first byte of a cross-frame delta frame.
const XFrameMagic = 0xB9

// ResyncMagic is the first byte of a resync packet — a receiver's
// request that the sender start a fresh generation for one chain.
const ResyncMagic = 0xBA

// xflagCast marks the cast chain; point-to-point chains leave it clear.
// All other flag bits are reserved and must be zero.
const xflagCast = 0x01

// IsXFrame reports whether data begins a cross-frame delta frame.
func IsXFrame(data []byte) bool { return len(data) > 0 && data[0] == XFrameMagic }

// IsResync reports whether data begins a resync packet. Substrates check
// it before handing raw packets to the member, and the member routes it
// into its Batcher instead of the stack.
func IsResync(data []byte) bool { return len(data) > 0 && data[0] == ResyncMagic }

// AppendResync appends a resync packet for the given chain to buf.
func AppendResync(buf []byte, cast bool, gen uint64) []byte {
	flag := byte(0)
	if cast {
		flag = xflagCast
	}
	buf = append(buf, ResyncMagic, flag)
	return binary.AppendUvarint(buf, gen)
}

// ParseResync decodes a resync packet. The parse is strict — reserved
// flag bits, non-minimal varints, or trailing bytes all report !ok — so
// a corrupted packet falls through to stray accounting instead of
// bumping a generation it never named.
func ParseResync(data []byte) (cast bool, gen uint64, ok bool) {
	if len(data) < 3 || data[0] != ResyncMagic || data[1]&^byte(xflagCast) != 0 {
		return false, 0, false
	}
	g, k := binary.Uvarint(data[2:])
	if k <= 0 || k != uvarintLen(g) || 2+k != len(data) {
		return false, 0, false
	}
	return data[1]&xflagCast != 0, g, true
}

// parseXHeader decodes a cross-frame header, returning the offset of the
// first sub. Strict like ParseResync: reserved flag bits or non-minimal
// varints report !ok, and the caller surfaces the whole frame as one
// garbage sub (a bit-flipped header must never seed a mirror).
func parseXHeader(data []byte) (cast bool, gen, seq uint64, off int, ok bool) {
	if len(data) < 4 || data[0] != XFrameMagic || data[1]&^byte(xflagCast) != 0 {
		return false, 0, 0, 0, false
	}
	cast = data[1]&xflagCast != 0
	off = 2
	g, k := binary.Uvarint(data[off:])
	if k <= 0 || k != uvarintLen(g) {
		return false, 0, 0, 0, false
	}
	off += k
	s, k := binary.Uvarint(data[off:])
	if k <= 0 || k != uvarintLen(s) || s == 0 {
		return false, 0, 0, 0, false
	}
	off += k
	return cast, g, s, off, true
}

// xKey identifies one outgoing chain: the cast chain is shared by all
// receivers (a cast frame is one buffer fanned out verbatim, so its
// delta chain must be one sequence too), point-to-point chains are per
// destination.
type xKey struct {
	cast bool
	to   event.Addr
}

// peerState is the sender's per-chain record: the generation/frame
// counters stamped into headers, the shadow of the last sub emitted
// (the next frame's cross-frame base), and the inter-append gap
// estimate the adaptive flush controller reads.
type peerState struct {
	gen      uint64
	frameSeq uint64
	// shadow is the last wire appended to the chain's previous frame,
	// with its parsed header; hasShadow is false in a fresh generation,
	// which is exactly what forces the next first sub to ride full.
	shadow     []byte
	shadowMeta subMeta
	hasShadow  bool
	// sinceFull counts consecutive frames whose first sub rode the
	// cross-frame shadow; at xAnchorEvery the chain emits an anchor
	// (full first sub) instead, resetting the count.
	sinceFull int
	// lastAppend / gapEWMA feed the adaptive flush controller: the time
	// of the chain's last append and a smoothed inter-append gap
	// (-1 until two appends have been seen).
	lastAppend int64
	gapEWMA    int64
}

// xAnchorEvery caps consecutive delta-first frames per chain: after this
// many, the next frame is an anchor (full first sub, self-contained).
// One lost frame renders every later delta-first frame already in flight
// undecodable until the resync round trip completes; anchors bound that
// amplification to the cadence and let a broken chain heal passively —
// a receiver adopts the anchor statelessly — even when the resync itself
// is lost. The cost is one full first sub per xAnchorEvery frames, the
// same refresh/efficiency trade header-compression schemes over lossy
// links settle by periodic full headers. 16 keeps the worst-case
// undecodable run under one resync round trip on the simulated link
// while paying the refresh tax half as often as the initial cadence of
// 8 did.
const xAnchorEvery = 16

// peer returns (creating on first use) the chain state for a destination.
func (b *Batcher) peer(cast bool, to event.Addr) *peerState {
	k := xKey{cast: cast}
	if !cast {
		k.to = to
	}
	st := b.peers[k]
	if st == nil {
		st = &peerState{gen: 1, lastAppend: -1, gapEWMA: -1}
		if b.peers == nil {
			b.peers = make(map[xKey]*peerState)
		}
		b.peers[k] = st
	}
	return st
}

// EnableCrossFrame switches the batcher to the delta frame format (magic
// XFrameMagic) with chaining on: frames carry generation-tagged headers,
// sub-packet headers are elided or delta-encoded against the previous
// sub, and the first sub of a frame may delta against the last sub of
// the previous frame to the same destination. prefixUvarints is the
// number of epoch uvarints prefixed to every wire (EpochPrefixUvarints
// for core.Member traffic, 0 for bare wires); receivers must walk frames
// with FrameWalker.WalkLink on a walker built with the same value.
// Pending frames are flushed first, so a frame is never half one format.
func (b *Batcher) EnableCrossFrame(prefixUvarints int) {
	if prefixUvarints < 0 || prefixUvarints > maxPrefix {
		panic("transport: prefixUvarints out of range")
	}
	b.Flush()
	b.delta = true
	b.chain = true
	b.nPrefix = prefixUvarints
}

// bump starts a fresh generation on the chain: frame sequence from 1
// again and no shadow, so the next frame is an anchor any receiver
// adopts statelessly.
func (st *peerState) bump() {
	st.gen++
	st.frameSeq = 0
	st.hasShadow = false
}

// closeTail records the newest frame's trailing delta state into its
// chain's shadow, making it the cross-frame base for that chain's next
// frame. Idempotent; called whenever the tail frame stops being
// appendable (a new frame supersedes it, or a flush is about to emit).
func (b *Batcher) closeTail() {
	n := len(b.frames)
	if n == 0 || !b.delta {
		return
	}
	f := &b.frames[n-1]
	if f.st == nil {
		return
	}
	f.st.shadow = append(f.st.shadow[:0], b.prev...)
	f.st.shadowMeta = f.base
	f.st.hasShadow = true
}

// BumpGenerations starts a fresh generation on every chain — the view-
// install hook: a new view changes the epoch prefix of every wire, the
// group composition, and possibly the member's own rank, so no receiver
// mirror built under the old view may be extended. Pending frames are
// flushed first (their headers already name the old generation).
func (b *Batcher) BumpGenerations() {
	if len(b.peers) == 0 {
		return
	}
	b.Flush()
	for _, st := range b.peers {
		st.bump()
	}
	b.stats.GenBumps++
}

// BumpPeer starts a fresh generation on the chains a rebinding peer can
// see — its point-to-point chain and the shared cast chain. UDPNet calls
// it when a member id reappears from a new socket address: the restarted
// process has no mirror state, so every chain it receives must restart
// with a full first sub.
func (b *Batcher) BumpPeer(to event.Addr) {
	bumped := false
	for _, k := range [2]xKey{{cast: false, to: to}, {cast: true}} {
		if st := b.peers[k]; st != nil {
			if !bumped {
				b.Flush()
				bumped = true
			}
			st.bump()
		}
	}
	if bumped {
		b.stats.GenBumps++
	}
}

// HandleResync reacts to a peer's resync packet: if the named chain is
// still in the generation the receiver could not decode, bump it. The
// generation check is what stops a bump storm — duplicate or delayed
// resyncs name a generation the sender has already left and are ignored.
func (b *Batcher) HandleResync(from event.Addr, cast bool, gen uint64) {
	k := xKey{cast: cast}
	if !cast {
		k.to = from
	}
	st := b.peers[k]
	if st == nil || st.gen != gen {
		return
	}
	b.Flush()
	st.bump()
	b.stats.ResyncBumps++
}

// The per-destination flush controller's tuning: hold a frame at most
// adaptiveMaxHoldNs (2ms) past its creation, only for chains appending
// faster than adaptiveGapNs (~500µs) apart, and only while the frame is
// under adaptiveMinBytes (600 bytes) — at or past it a frame is worth a
// transmission on its own. The gap ceiling sits above the steady cast
// cadences the workloads run (200µs rounds) — a chain carrying
// back-to-back rounds is exactly the one worth holding through a
// barrier so the next round's subs ride the same frame — and the hold
// cap spans a couple of drain barriers even when the adaptive quantum
// has widened past the submission interval. The layer sweep tick (50ms)
// and the barrier cadence bound staleness even if traffic stops dead.
const (
	adaptiveMaxHoldNs = 2_000_000
	adaptiveGapNs     = 500_000
	adaptiveMinBytes  = 600
)

// EnableAdaptiveFlush turns the controller on. now is the owner's clock
// (virtual nanoseconds under netsim, monotonic under UDPNet) — holding
// decisions read only this clock and per-chain counters, so simulated
// runs stay deterministic. Only FlushEntryEnd and FlushBarrier causes
// consult the controller; size-threshold and explicit flushes always
// emit everything.
func (b *Batcher) EnableAdaptiveFlush(now func() int64) {
	if now == nil {
		panic("transport: EnableAdaptiveFlush needs a clock")
	}
	b.Flush()
	b.adaptive = true
	b.now = now
}

// DisableAdaptiveFlush restores unconditional flushing — the ablation
// knob — emitting anything currently held.
func (b *Batcher) DisableAdaptiveFlush() {
	b.adaptive = false
	b.now = nil
	b.Flush()
}

// AdaptiveFlushEnabled reports whether the controller is on.
func (b *Batcher) AdaptiveFlushEnabled() bool { return b.adaptive }

// SetHoldObserver installs a per-frame queue-residency observer: at
// every emit, obs receives the frame's age (emit time minus creation
// time, in the adaptive clock's nanoseconds). The member wires an
// obs.Histogram's Observe here — the hold-duration distribution that
// says what the adaptive controller's holds actually cost in latency.
// Only meaningful with the adaptive controller on (frames are not
// timestamped otherwise); nil uninstalls.
func (b *Batcher) SetHoldObserver(obs func(int64)) { b.holdObs = obs }

// PendingSubs reports the number of wires awaiting a flush across all
// pending frames — what a held flush decision left behind.
func (b *Batcher) PendingSubs() int {
	n := 0
	for i := range b.frames {
		n += b.frames[i].subs
	}
	return n
}

// holdable reports whether the adaptive controller may keep f pending:
// still small, still young, and headed to a chain whose observed append
// cadence says more wires are imminent.
func (b *Batcher) holdable(f *batchFrame, now int64) bool {
	if f.st == nil || len(f.buf) >= adaptiveMinBytes {
		return false
	}
	if now-f.born >= adaptiveMaxHoldNs {
		return false
	}
	g := f.st.gapEWMA
	return g >= 0 && g <= adaptiveGapNs
}

// linkKey identifies one incoming chain at the receiver: the mirror of
// the sender's xKey, qualified by the sender's address.
type linkKey struct {
	from, to event.Addr
	cast     bool
}

// Reorder-stash tuning. Neither netsim links nor UDP are FIFO, and a
// frame whose first sub rides the cross-frame base is undecodable until
// its predecessor lands — so instead of surfacing it as garbage the
// receiver parks it, bounded, and drains it in sequence once the mirror
// catches up. xStashCap caps the parked frames per link (beyond it a
// frame falls back to the resync path). xStashNag is the liveness
// threshold: one or two parked frames are almost always plain
// reordering with the predecessor still in flight, but a stash that
// keeps growing means the hole is a real loss, so every arrival past
// the threshold reports a generation miss and earns a resync.
const (
	xStashCap = 32
	xStashNag = 2
)

// genState is one generation's trailing decode state: the frame counter
// last accepted and the last surfaced sub (always mirror-owned storage —
// frame buffers are recycled).
type genState struct {
	gen      uint64 // 0 = dead
	frameSeq uint64
	base     subMeta
	prev     []byte
}

// linkMirror is the receiver's copy of a chain's trailing state. It
// tracks two generations: cur, the one the chain is on, and old, the one
// it just left. A generation bump happens at the sender while frames of
// the outgoing generation are still in flight; without old, every one of
// them would land whole in garbage accounting, turning one loss into a
// window's worth — and each garbage frame is a sub the stack's NAK layer
// must then re-fetch, which amplifies further under sustained loss.
// With old, a pre-bump straggler that arrives in continuity decodes
// exactly as it would have before the bump.
type linkMirror struct {
	valid bool
	cur   genState
	old   genState
	// stash holds reordered frames of generation sgen that arrived before
	// their predecessor, keyed by frame sequence and drained in order as
	// the matching generation's state advances past each hole.
	sgen  uint64
	stash map[uint64][]byte
}

// WalkResult reports what WalkLink saw, so substrates can account
// stale-generation frames and answer generation misses with a resync.
type WalkResult struct {
	// Subs is the number of subs surfaced (garbage subs included).
	Subs int
	// XFrame reports that the packet carried the delta frame magic.
	XFrame bool
	// Cast and Gen echo the frame header (valid when XFrame and the
	// header parsed) — what a resync answer must name.
	Cast bool
	Gen  uint64
	// GenMiss reports that the frame could not be decoded without mirror
	// state the receiver does not have: the substrate should answer with
	// a resync for (Cast, Gen) so the sender starts a fresh generation.
	GenMiss bool
	// StaleGen reports a frame from a generation older than the mirror —
	// a pre-bump straggler, surfaced whole as garbage, never answered.
	StaleGen bool
	// Stashed reports that the frame was parked in the reorder stash to
	// wait for its predecessor (it may still set GenMiss past xStashNag).
	Stashed bool
}

// WalkLink fans data, received on the link (from, to), out into its
// sub-packets, calling fn once per sub in order; the result counts them
// (Subs) and reports what the substrate must answer. Non-frames surface
// whole and classic frames decode statelessly (see walkFrame). 0xB9
// frames are checked against the (from, to, cast) mirror and extend it
// on exact continuity; a self-contained (anchor) frame decodes with no
// mirror at all. Malformed framing — truncated fields, a delta sub with
// no base, flag bytes with unknown bits, overrunning lengths, an
// overflowing seqno delta — surfaces the remaining bytes (from the
// offending sub's flag byte on) as one final garbage sub, so the
// sender's byte count is always accounted for downstream (stray-packet
// accounting), and never panics. See FrameWalker for sub lifetimes.
func (w *FrameWalker) WalkLink(from, to event.Addr, data []byte, fn func(sub []byte)) WalkResult {
	var r WalkResult
	if !IsXFrame(data) {
		r.Subs = walkFrame(data, fn)
		return r
	}
	r.XFrame = true
	cast, gen, seq, off, ok := parseXHeader(data)
	if !ok {
		// A corrupted header cannot be trusted to name a chain: surface
		// the whole frame as garbage and do not answer.
		fn(data)
		r.Subs = 1
		return r
	}
	r.Cast, r.Gen = cast, gen
	key := linkKey{from: from, to: to, cast: cast}
	m := w.links[key]
	if m != nil && m.valid && gen == m.cur.gen && seq == m.cur.frameSeq+1 {
		// Exact continuity: decode against the mirror, then advance it.
		w.extend(m, &m.cur, data, &r, fn)
		return r
	}
	if m != nil && m.old.gen != 0 && gen == m.old.gen && seq == m.old.frameSeq+1 {
		// A pre-bump straggler in continuity with the generation the chain
		// just left: decode it exactly as the pre-bump mirror would have.
		w.extend(m, &m.old, data, &r, fn)
		return r
	}
	if m != nil && m.valid && gen < m.cur.gen {
		// A straggler with no continuity to give: pre-bump garbage,
		// surfaced whole for stray accounting, never answered.
		fn(data)
		r.Subs = 1
		r.StaleGen = true
		return r
	}
	// No usable mirror (first contact, newer generation, or a sequence
	// gap). A frame whose first sub needs the cross-frame base cannot
	// surface anything but garbage here — links reorder, so park it in
	// the stash while its predecessor may still be in flight.
	if off < len(data) && data[off] != subFull {
		if m != nil && m.valid && gen == m.cur.gen && seq <= m.cur.frameSeq {
			// A duplicate (or late reordered copy) of a frame this mirror
			// already consumed: the chain is healthy, so answering would
			// bump a live generation once per duplicate — a resync storm.
			// Stale garbage, not missed.
			fn(data[off:])
			r.Subs = 1
			r.StaleGen = true
			return r
		}
		m = w.mirror(key)
		if gen > m.sgen {
			// The stash tracks one generation — the newest seen; older
			// parked frames can never extend a mirror that moved past them.
			m.stash = nil
			m.sgen = gen
		}
		if gen == m.sgen && len(m.stash) < xStashCap {
			if m.stash == nil {
				m.stash = make(map[uint64][]byte)
			}
			if _, dup := m.stash[seq]; !dup {
				m.stash[seq] = append([]byte(nil), data...)
			}
			r.Stashed = true
			if len(m.stash) <= xStashNag {
				return r
			}
		}
		r.GenMiss = true
		return r
	}
	// Self-contained frame (full first sub): decode statelessly and adopt
	// the mirror forward.
	w.base = subMeta{}
	subs, last, clean := w.walkSubs(data, off, nil, fn)
	r.Subs = subs
	if !clean {
		r.GenMiss = true
		return r
	}
	// Adopt only forward (newer generation, or a later frame of the
	// current one): a duplicated old frame must not rewind the mirror
	// under the in-order successor's feet.
	if subs > 0 && (m == nil || !m.valid || gen > m.cur.gen || (gen == m.cur.gen && seq > m.cur.frameSeq)) {
		m = w.mirror(key)
		if m.valid && gen > m.cur.gen {
			// The chain moved on; keep the outgoing generation's trailing
			// state so its in-flight stragglers still decode.
			m.old = m.cur
			m.cur.prev = nil
		}
		m.valid = true
		m.cur.gen = gen
		m.cur.frameSeq = seq
		m.cur.base = w.base
		m.cur.prev = append(m.cur.prev[:0], last...)
		w.extend(m, &m.cur, m.next(&m.cur), &r, fn)
	}
	return r
}

// mirror returns (creating on first use) the mirror for one link.
func (w *FrameWalker) mirror(key linkKey) *linkMirror {
	m := w.links[key]
	if m == nil {
		m = &linkMirror{}
		if w.links == nil {
			w.links = make(map[linkKey]*linkMirror)
		}
		w.links[key] = m
	}
	return m
}

// extend decodes the 0xB9 frame data in continuity with generation
// state g — the mirror's live generation or the one it just left —
// advances g past it, and goes on with g's parked successors in frame
// order until the next hole; nil data starts with the stash. A frame
// that breaks mid-decode ends the run and kills g: nothing after it can
// extend g either. A broken live
// generation invalidates the mirror and asks for a restart (GenMiss); a
// broken outgoing one only turns its later stragglers into garbage
// (StaleGen) and leaves the live chain untouched.
func (w *FrameWalker) extend(m *linkMirror, g *genState, data []byte, r *WalkResult, fn func(sub []byte)) {
	for ; data != nil; data = m.next(g) {
		_, _, seq, off, _ := parseXHeader(data) // parsed strict on arrival
		w.base = g.base
		subs, last, clean := w.walkSubs(data, off, g.prev, fn)
		r.Subs += subs
		if !clean {
			if g == &m.cur {
				m.valid = false
				r.GenMiss = true
			} else {
				r.StaleGen = true
			}
			m.old.gen = 0
			return
		}
		g.frameSeq = seq
		g.base = w.base
		if subs > 0 {
			g.prev = append(g.prev[:0], last...)
		}
	}
}

// next pops the parked successor of generation state g from the reorder
// stash, or returns nil at a hole. Entries g moved past are dead: their
// content was either consumed already or skipped by a forward adoption,
// and the stack's NAK layer recovers whatever the skip dropped.
func (m *linkMirror) next(g *genState) []byte {
	if len(m.stash) == 0 || m.sgen != g.gen {
		if m.sgen < m.cur.gen && m.sgen != m.old.gen {
			m.stash = nil
		}
		return nil
	}
	for s := range m.stash {
		if s <= g.frameSeq {
			delete(m.stash, s)
		}
	}
	d := m.stash[g.frameSeq+1]
	delete(m.stash, g.frameSeq+1)
	return d
}

// InvalidateFrom drops every mirror fed by one sender address — the
// receive half of a peer rebind: a restarted sender's chains share
// nothing with the old process's, whatever generations its headers name.
func (w *FrameWalker) InvalidateFrom(from event.Addr) {
	for k, m := range w.links {
		if k.from == from {
			m.valid = false
			m.old.gen = 0
			m.stash = nil
		}
	}
}
