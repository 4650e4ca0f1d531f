package layers

import (
	"fmt"

	"ensemble/internal/event"
	"ensemble/internal/layer"
	"ensemble/internal/transport"
)

// mnakState implements reliable FIFO multicast using negative
// acknowledgments. Senders number their casts; receivers detect gaps and
// request retransmission point-to-point from the origin. Sent casts are
// buffered until the stability protocol (collect layer) reports them
// delivered everywhere. This is the classic Ensemble MNAK component.
type mnakState struct {
	view *event.View

	// mySeq is the sequence number of the next cast this member sends.
	mySeq int64

	// recvNext[o] is the next expected sequence number from origin o.
	recvNext []int64

	// recvBuf[o] buffers out-of-order casts from origin o.
	recvBuf []map[int64]*savedMsg

	// kept[o] holds copies of origin o's casts that are not yet stable,
	// so this member can retransmit them: kept[rank] is our own sent
	// casts, served to any member that NAKs a gap; another origin's
	// ring holds the casts we delivered from it, served on its behalf
	// during a view-change flush. Without those, virtual synchrony has a
	// hole: a cast whose origin is then partitioned away may have
	// reached some survivors but not others, and only the (now
	// unreachable) origin could repair the difference — the flush would
	// either hang or install a view whose members delivered different
	// casts. For every kept origin, kept[o] is exactly
	// [stable_o, recvNext_o) (our own: [stable, mySeq)).
	kept []keptRing

	// keepOthers is set when the stack has a view-change flush (a
	// membership layer): only the flush NAKs a member for another
	// origin's casts, so without one nothing could read those copies and
	// they are not made.
	keepOthers bool

	// naked[o] is the highest sequence number already NAKed to origin o,
	// to avoid duplicate NAKs for the same gap.
	naked []int64
}

// keptRing holds one origin's kept casts, sequence numbers [lo, lo+n),
// in a power-of-two ring indexed by sequence number. It grows by
// doubling; trim releases the boxes that became stable by advancing lo.
type keptRing struct {
	buf []*savedMsg
	lo  int64
	n   int
}

// hi is one past the newest kept sequence number: the only one put
// accepts.
func (r *keptRing) hi() int64 { return r.lo + int64(r.n) }

// put appends seq's box. Only seq == hi is taken: a lower seq is a
// duplicate or already stable, a higher one would leave a hole. A
// rejected box is released.
func (r *keptRing) put(seq int64, m *savedMsg) bool {
	if seq != r.hi() {
		m.release()
		return false
	}
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[seq&int64(len(r.buf)-1)] = m
	r.n++
	return true
}

func (r *keptRing) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]*savedMsg, size)
	for q := r.lo; q < r.hi(); q++ {
		buf[q&int64(size-1)] = r.buf[q&int64(len(r.buf)-1)]
	}
	r.buf = buf
}

// get returns seq's box, or nil when seq is not kept.
func (r *keptRing) get(seq int64) *savedMsg {
	if seq < r.lo || seq >= r.hi() {
		return nil
	}
	return r.buf[seq&int64(len(r.buf)-1)]
}

// trim releases every box below stable. A stable point past hi empties
// the ring and moves lo there, so later puts below it are rejected.
func (r *keptRing) trim(stable int64) {
	for r.n > 0 && r.lo < stable {
		i := r.lo & int64(len(r.buf)-1)
		r.buf[i].release()
		r.buf[i] = nil
		r.lo++
		r.n--
	}
	if r.lo < stable {
		r.lo = stable
	}
}

// mnak header variants. mnakData rides every steady-state cast, so it
// is a pooled pointer header (boxing a value header into the Header
// interface would allocate per message); the rare control headers stay
// plain values.
type (
	// mnakData tags a first-transmission cast.
	mnakData struct{ Seqno int64 }
	// mnakPass tags point-to-point traffic passing through untouched.
	mnakPass struct{}
	// mnakNak requests retransmission of origin Origin's casts [Lo,Hi].
	// Usually addressed to the origin itself; during a view-change flush
	// it fans out to every member, any of which may hold kept copies of
	// an unreachable origin's casts (the only NAK for another origin).
	mnakNak struct {
		Origin int32
		Lo, Hi int64
	}
	// mnakRetrans carries a retransmitted cast point-to-point to the
	// member that NAKed it. Origin identifies the original sender, which
	// need not be the retransmitting peer.
	mnakRetrans struct {
		Origin int32
		Seqno  int64
	}
)

var mnakDataPool event.HdrPool[mnakData]

func newMnakData(seq int64) *mnakData {
	h := mnakDataPool.Get()
	h.Seqno = seq
	return h
}

func (*mnakData) Layer() string   { return Mnak }
func (mnakPass) Layer() string    { return Mnak }
func (mnakNak) Layer() string     { return Mnak }
func (mnakRetrans) Layer() string { return Mnak }

func (h *mnakData) HdrString() string { return fmt.Sprintf("mnak:Data(%d)", h.Seqno) }
func (mnakPass) HdrString() string    { return "mnak:Pass" }
func (h mnakNak) HdrString() string {
	return fmt.Sprintf("mnak:Nak(o=%d,%d,%d)", h.Origin, h.Lo, h.Hi)
}
func (h mnakRetrans) HdrString() string {
	return fmt.Sprintf("mnak:Retrans(o=%d,%d)", h.Origin, h.Seqno)
}

func (h *mnakData) CloneHdr() event.Header { return newMnakData(h.Seqno) }
func (h *mnakData) FreeHdr()               { mnakDataPool.Put(h) }

const (
	mnakTagData byte = iota
	mnakTagPass
	mnakTagNak
	mnakTagRetrans
)

func init() {
	layer.Register(Mnak, func(cfg layer.Config) layer.State {
		n := cfg.View.N()
		s := &mnakState{
			view:     cfg.View,
			recvNext: make([]int64, n),
			recvBuf:  make([]map[int64]*savedMsg, n),
			kept:     make([]keptRing, n),
			naked:    make([]int64, n),
		}
		for i := range s.naked {
			s.naked[i] = -1
		}
		return s
	})
	transport.RegisterCodec(transport.HeaderCodec{
		Layer: Mnak,
		ID:    idMnak,
		Encode: func(h event.Header, w *transport.Writer) {
			switch h := h.(type) {
			case *mnakData:
				w.Byte(mnakTagData)
				w.Varint(h.Seqno)
			case mnakPass:
				w.Byte(mnakTagPass)
			case mnakNak:
				w.Byte(mnakTagNak)
				w.Varint(int64(h.Origin))
				w.Varint(h.Lo)
				w.Varint(h.Hi)
			case mnakRetrans:
				w.Byte(mnakTagRetrans)
				w.Varint(int64(h.Origin))
				w.Varint(h.Seqno)
			default:
				panic(fmt.Sprintf("mnak: unknown header %T", h))
			}
		},
		Decode: func(r *transport.Reader) (event.Header, error) {
			switch tag := r.Byte(); tag {
			case mnakTagData:
				return newMnakData(r.Varint()), nil
			case mnakTagPass:
				return mnakPass{}, nil
			case mnakTagNak:
				return mnakNak{Origin: int32(r.Varint()), Lo: r.Varint(), Hi: r.Varint()}, nil
			case mnakTagRetrans:
				return mnakRetrans{Origin: int32(r.Varint()), Seqno: r.Varint()}, nil
			default:
				return nil, transport.ErrBadWire("mnak tag %d", tag)
			}
		},
	})
}

func (s *mnakState) Name() string { return Mnak }

// Link turns on keeping other origins' casts when the stack has a
// membership layer, whose flush is their only reader (see keepOthers).
func (s *mnakState) Link(states []layer.State) {
	for _, st := range states {
		if _, ok := st.(*membershipState); ok {
			s.keepOthers = true
		}
	}
}

// keeps reports whether origin's casts are kept.
func (s *mnakState) keeps(origin int) bool {
	return s.keepOthers || origin == s.view.Rank
}

func (s *mnakState) HandleDn(ev *event.Event, snk layer.Sink) {
	switch ev.Type {
	case event.ECast:
		seq := s.mySeq
		s.mySeq++
		// Saved before the mnak header is pushed: a retransmission must
		// reconstruct the message exactly as the layers above handed it
		// to us, including their headers.
		s.kept[s.view.Rank].put(seq, saveMsg(ev))
		ev.Msg.Push(newMnakData(seq))
		snk.PassDn(ev)
	case event.ESend:
		ev.Msg.Push(mnakPass{})
		snk.PassDn(ev)
	case event.EBlock:
		// View-change flush (membership layer): report our
		// contiguous-receive vector so the coordinator can decide when
		// every surviving member holds the same casts.
		ok := event.Alloc()
		ok.Dir, ok.Type = event.Up, event.EBlockOk
		ok.Stability = append([]int64(nil), s.recvNext...)
		ok.Stability[s.view.Rank] = s.mySeq
		snk.PassUp(ok)
		snk.PassDn(ev)
	case event.EAck:
		// A frontier from the flush protocol: NAK anything some member
		// has seen from an origin that we have not. Unlike data-driven
		// gap detection, this path re-NAKs on every flush round — a lost
		// NAK or retransmission would otherwise never be retried, since
		// no new traffic flows while the group is blocked. The NAK fans
		// out to every member, not just the origin: the origin may be
		// exactly the member being flushed out, and then only survivors'
		// kept copies can repair the gap.
		for o, have := range ev.Stability {
			if o == s.view.Rank || o >= s.view.N() {
				continue
			}
			if have > s.recvNext[o] {
				if have-1 > s.naked[o] {
					s.naked[o] = have - 1
				}
				for target := 0; target < s.view.N(); target++ {
					if target == s.view.Rank {
						continue
					}
					s.sendNak(o, target, s.recvNext[o], have-1, snk)
				}
			}
		}
		event.Free(ev)
	case event.EStable:
		// Casts delivered everywhere can never be NAKed again: release
		// them from the kept rings.
		for o := range s.kept {
			if o >= len(ev.Stability) {
				break
			}
			if s.keeps(o) {
				s.kept[o].trim(ev.Stability[o])
			}
		}
		snk.PassDn(ev)
	default:
		snk.PassDn(ev)
	}
}

func (s *mnakState) HandleUp(ev *event.Event, snk layer.Sink) {
	switch ev.Type {
	case event.ECast:
		h, ok := ev.Msg.Pop().(*mnakData)
		if !ok {
			panic("mnak: up cast without mnak data header")
		}
		seq := h.Seqno
		h.FreeHdr()
		s.deliverCast(ev.Peer, seq, ev, true, snk)
	case event.ETimer:
		// Report the contiguous-receive vector upward so the stability
		// protocol (collect layer) can gossip it. Our own slot is our
		// send count: everything we sent, we trivially have.
		ack := event.Alloc()
		ack.Dir, ack.Type = event.Up, event.EAck
		ack.Stability = append([]int64(nil), s.recvNext...)
		ack.Stability[s.view.Rank] = s.mySeq
		snk.PassUp(ack)
		snk.PassUp(ev)
	case event.ESend:
		switch h := ev.Msg.Pop().(type) {
		case mnakPass:
			snk.PassUp(ev)
		case mnakNak:
			s.handleNak(ev.Peer, h, snk)
			event.Free(ev)
		case mnakRetrans:
			// A retransmission is a cast from the original sender — not
			// necessarily the retransmitting peer — carried
			// point-to-point: re-type and deliver under its origin.
			if o := int(h.Origin); o >= 0 && o < s.view.N() {
				// Re-attribute: the upper layers must see the original
				// sender, not the retransmitting peer.
				ev.Type, ev.Peer = event.ECast, o
				s.deliverCast(o, h.Seqno, ev, false, snk)
			} else {
				event.Free(ev)
			}
		default:
			panic(fmt.Sprintf("mnak: unexpected up send header %T", h))
		}
	default:
		snk.PassUp(ev)
	}
}

// deliverCast applies the in-order delivery rule for a cast (or
// retransmitted cast) with sequence number seq from origin. nak controls
// whether gap detection triggers a NAK (retransmissions never re-NAK, to
// avoid storms when a burst is being repaired).
func (s *mnakState) deliverCast(origin int, seq int64, ev *event.Event, nak bool, snk layer.Sink) {
	next := s.recvNext[origin]
	switch {
	case seq == next:
		s.keep(origin, seq, ev)
		s.recvNext[origin] = next + 1
		snk.PassUp(ev)
		s.drain(origin, snk)
	case seq > next:
		if _, dup := s.recvBuf[origin][seq]; !dup {
			if s.recvBuf[origin] == nil {
				s.recvBuf[origin] = make(map[int64]*savedMsg)
			}
			// The mnak header is already popped: what remains is the
			// upper layers' stack, preserved for delivery after the gap
			// fills.
			s.recvBuf[origin][seq] = saveMsg(ev)
		}
		if nak && seq-1 > s.naked[origin] {
			s.naked[origin] = seq - 1
			s.sendNak(origin, origin, next, seq-1, snk)
		}
		event.Free(ev)
	default:
		// Duplicate of an already-delivered cast.
		event.Free(ev)
	}
}

// drain delivers buffered casts that have become in-order.
func (s *mnakState) drain(origin int, snk layer.Sink) {
	buf := s.recvBuf[origin]
	for {
		next := s.recvNext[origin]
		m, ok := buf[next]
		if !ok {
			return
		}
		delete(buf, next)
		s.recvNext[origin] = next + 1
		out := event.Alloc()
		out.Dir, out.Type, out.Peer = event.Up, event.ECast, origin
		m.transferTo(out)
		s.keep(origin, next, out)
		snk.PassUp(out)
	}
}

// keep snapshots a cast being delivered into origin's kept ring, so this
// member can later retransmit it on the origin's behalf. Called just
// before the delivery PassUp, while the event still holds the upper
// layers' header stack.
func (s *mnakState) keep(origin int, seq int64, ev *event.Event) {
	if r := &s.kept[origin]; s.keeps(origin) && seq == r.hi() {
		r.put(seq, saveMsg(ev))
	}
}

// sendNak emits a point-to-point retransmission request for origin's
// casts [lo,hi] to target (usually the origin itself; during a flush,
// any member holding kept copies).
func (s *mnakState) sendNak(origin, target int, lo, hi int64, snk layer.Sink) {
	nak := event.Alloc()
	nak.Dir, nak.Type, nak.Peer = event.Dn, event.ESend, target
	nak.Msg.Push(mnakNak{Origin: int32(origin), Lo: lo, Hi: hi})
	snk.PassDn(nak)
}

// handleNak retransmits the requested range point-to-point to the
// requester from origin's kept ring: our own casts, or another origin's
// during a flush. Sequence numbers already released by stability are
// silently skipped: stability proves the requester cannot still need
// them (the NAK was stale).
func (s *mnakState) handleNak(requester int, h mnakNak, snk layer.Sink) {
	origin := int(h.Origin)
	if origin < 0 || origin >= s.view.N() {
		return
	}
	r := &s.kept[origin]
	lo, hi := max(h.Lo, r.lo), min(h.Hi, r.hi()-1)
	for q := lo; q <= hi; q++ {
		m := r.get(q)
		rt := event.Alloc()
		rt.Dir, rt.Type, rt.Peer = event.Dn, event.ESend, requester
		rt.ApplMsg = m.applMsg
		rt.Msg.Payload = m.payload
		// Copy: the kept box may be retransmitted again and the headers
		// appended below would otherwise share its backing array.
		rt.Msg.Headers = copyHdrs(m.hdrs)
		rt.Msg.Push(mnakRetrans{Origin: h.Origin, Seqno: q})
		snk.PassDn(rt)
	}
}
