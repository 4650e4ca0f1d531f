package layers

import (
	"fmt"

	"ensemble/internal/event"
	"ensemble/internal/layer"
	"ensemble/internal/transport"
)

// membershipState implements a coordinator-driven group membership
// protocol providing virtual synchrony: when members are suspected (or
// leave), the coordinator runs a flush — members stop sending, report
// their reliability layer's receive vectors, and once every surviving
// member holds the same set of casts the coordinator announces the new
// view. The group runtime reacts to the resulting EView by rebuilding the
// protocol stack for the new view, which is how Ensemble switches
// protocol stacks on the fly ([25], §4.1.3).
//
// Simplification versus Ensemble's full GMP (documented in DESIGN.md):
// partitions do not merge back, and the coordinator is the lowest
// unsuspected rank rather than an elected one.
type membershipState struct {
	view *event.View

	// suspects marks members excluded from the next view.
	suspects []bool
	// leaving marks members that asked to leave gracefully.
	leaving []bool

	// blocked is set between the flush announcement and the new view;
	// application traffic queues in pending meanwhile.
	blocked bool
	pending []PendingApp

	// flushing marks an in-progress view change; appNotified marks that
	// the application has seen its EBlock.
	flushing    bool
	appNotified bool
	proposedSeq int64
	// round numbers flush attempts: reactive traffic during a flush
	// changes the vectors, so the coordinator re-runs rounds until a
	// consistent sample appears, ignoring stale replies.
	round int64
	// vectors[m] is the receive vector member m reported this round
	// (flat mode only; tree mode folds vectors in agg instead).
	vectors [][]int64

	// fanout selects the dissemination topology: 0 is the flat
	// coordinator-direct protocol, k > 0 a k-ary tree over the survivor
	// ranks (see membership_tree.go).
	fanout int
	// agg is the current flush round's tree fold.
	agg aggRound
	// treeSeenSeq/treeSeenRound dedup down-tree flush rounds.
	treeSeenSeq, treeSeenRound int64
	// viewSent dedups tree view announcements (sent or installed).
	viewSent int64
}

// PendingApp is an application message buffered during a view change,
// re-submitted by the group runtime once the new view's stack is up.
type PendingApp struct {
	// IsCast distinguishes multicasts from point-to-point sends.
	IsCast bool
	// Dst is the destination address for sends (addresses are stable
	// across views; ranks are not).
	Dst event.Addr
	// Payload is the application payload.
	Payload []byte
}

// PendingDrainer is implemented by membership states; the group runtime
// drains buffered application traffic after installing a new view.
type PendingDrainer interface {
	DrainPending() []PendingApp
}

// membership header variants.
type (
	// membPass tags data passing through.
	membPass struct{}
	// membFlush starts (or restarts) a flush round for view ViewSeq.
	// Frontier is the coordinator's element-wise best knowledge of every
	// member's send count, from the previous round's replies: receivers
	// hand it to the reliability layer so trailing losses — which no
	// further traffic would ever reveal during a flush — are NAKed and
	// repaired, letting the vectors converge.
	membFlush struct {
		ViewSeq  int64
		Round    int64
		Frontier []int64
	}
	// membFlushOk reports a member's receive vector to the coordinator.
	membFlushOk struct {
		ViewSeq int64
		Round   int64
		Vector  []int64
	}
	// membView announces the agreed next view.
	membView struct {
		ViewSeq int64
		Members []event.Addr
	}
	// membLeave announces a graceful departure.
	membLeave struct{ Rank int32 }
)

func (membPass) Layer() string    { return Membership }
func (membFlush) Layer() string   { return Membership }
func (membFlushOk) Layer() string { return Membership }
func (membView) Layer() string    { return Membership }
func (membLeave) Layer() string   { return Membership }

func (membPass) HdrString() string      { return "membership:Pass" }
func (h membFlush) HdrString() string   { return fmt.Sprintf("membership:Flush(%d)", h.ViewSeq) }
func (h membFlushOk) HdrString() string { return fmt.Sprintf("membership:FlushOk(%d)", h.ViewSeq) }
func (h membView) HdrString() string {
	return fmt.Sprintf("membership:View(%d,%v)", h.ViewSeq, h.Members)
}
func (h membLeave) HdrString() string { return fmt.Sprintf("membership:Leave(%d)", h.Rank) }

const (
	membTagPass byte = iota
	membTagFlush
	membTagFlushOk
	membTagView
	membTagLeave
	membTagFlushAgg
	membTagFlushTree
)

func init() {
	layer.Register(Membership, func(cfg layer.Config) layer.State {
		n := cfg.View.N()
		return &membershipState{
			view:     cfg.View,
			suspects: make([]bool, n),
			leaving:  make([]bool, n),
			vectors:  make([][]int64, n),
			fanout:   resolveMembFanout(cfg),
		}
	})
	transport.RegisterCodec(transport.HeaderCodec{
		Layer: Membership,
		ID:    idMembership,
		Encode: func(h event.Header, w *transport.Writer) {
			switch h := h.(type) {
			case membPass:
				w.Byte(membTagPass)
			case membFlush:
				w.Byte(membTagFlush)
				w.Varint(h.ViewSeq)
				w.Varint(h.Round)
				w.Uvarint(uint64(len(h.Frontier)))
				for _, v := range h.Frontier {
					w.Varint(v)
				}
			case membFlushOk:
				w.Byte(membTagFlushOk)
				w.Varint(h.ViewSeq)
				w.Varint(h.Round)
				w.Uvarint(uint64(len(h.Vector)))
				for _, v := range h.Vector {
					w.Varint(v)
				}
			case membView:
				w.Byte(membTagView)
				w.Varint(h.ViewSeq)
				w.Uvarint(uint64(len(h.Members)))
				for _, m := range h.Members {
					w.Varint(int64(m))
				}
			case membLeave:
				w.Byte(membTagLeave)
				w.Varint(int64(h.Rank))
			case membFlushAgg:
				w.Byte(membTagFlushAgg)
				w.Varint(h.ViewSeq)
				w.Varint(h.Round)
				w.Varint(int64(h.Count))
				if h.Mismatch {
					w.Byte(1)
				} else {
					w.Byte(0)
				}
				w.Uvarint(uint64(len(h.Vector)))
				for _, v := range h.Vector {
					w.Varint(v)
				}
				w.Uvarint(uint64(len(h.Max)))
				for _, v := range h.Max {
					w.Varint(v)
				}
			case membFlushTree:
				w.Byte(membTagFlushTree)
				w.Varint(h.ViewSeq)
				w.Varint(h.Round)
				w.Uvarint(uint64(len(h.Frontier)))
				for _, v := range h.Frontier {
					w.Varint(v)
				}
				w.Uvarint(uint64(len(h.Excluded)))
				for _, r := range h.Excluded {
					w.Varint(int64(r))
				}
			default:
				panic(fmt.Sprintf("membership: unknown header %T", h))
			}
		},
		Decode: func(r *transport.Reader) (event.Header, error) {
			switch tag := r.Byte(); tag {
			case membTagPass:
				return membPass{}, nil
			case membTagFlush:
				seq, round := r.Varint(), r.Varint()
				n := r.Uvarint()
				if n > 1<<16 {
					return nil, transport.ErrBadWire("membership frontier length %d", n)
				}
				fr := make([]int64, n)
				for i := range fr {
					fr[i] = r.Varint()
				}
				return membFlush{ViewSeq: seq, Round: round, Frontier: fr}, nil
			case membTagFlushOk:
				seq, round := r.Varint(), r.Varint()
				n := r.Uvarint()
				if n > 1<<16 {
					return nil, transport.ErrBadWire("membership vector length %d", n)
				}
				vec := make([]int64, n)
				for i := range vec {
					vec[i] = r.Varint()
				}
				return membFlushOk{ViewSeq: seq, Round: round, Vector: vec}, nil
			case membTagView:
				seq := r.Varint()
				n := r.Uvarint()
				if n > 1<<16 {
					return nil, transport.ErrBadWire("membership member count %d", n)
				}
				ms := make([]event.Addr, n)
				for i := range ms {
					ms[i] = event.Addr(r.Varint())
				}
				return membView{ViewSeq: seq, Members: ms}, nil
			case membTagLeave:
				return membLeave{Rank: int32(r.Varint())}, nil
			case membTagFlushAgg:
				seq, round, count := r.Varint(), r.Varint(), r.Varint()
				mismatch := r.Byte() != 0
				n := r.Uvarint()
				if n > 1<<16 {
					return nil, transport.ErrBadWire("membership agg vector length %d", n)
				}
				vec := make([]int64, n)
				for i := range vec {
					vec[i] = r.Varint()
				}
				m := r.Uvarint()
				if m > 1<<16 {
					return nil, transport.ErrBadWire("membership agg max length %d", m)
				}
				max := make([]int64, m)
				for i := range max {
					max[i] = r.Varint()
				}
				return membFlushAgg{ViewSeq: seq, Round: round, Count: int32(count),
					Mismatch: mismatch, Vector: vec, Max: max}, nil
			case membTagFlushTree:
				seq, round := r.Varint(), r.Varint()
				n := r.Uvarint()
				if n > 1<<16 {
					return nil, transport.ErrBadWire("membership tree frontier length %d", n)
				}
				fr := make([]int64, n)
				for i := range fr {
					fr[i] = r.Varint()
				}
				m := r.Uvarint()
				if m > 1<<16 {
					return nil, transport.ErrBadWire("membership tree excluded length %d", m)
				}
				exc := make([]int32, m)
				for i := range exc {
					exc[i] = int32(r.Varint())
				}
				return membFlushTree{ViewSeq: seq, Round: round, Frontier: fr, Excluded: exc}, nil
			default:
				return nil, transport.ErrBadWire("membership tag %d", tag)
			}
		},
	})
}

func (s *membershipState) Name() string { return Membership }

// DrainPending implements PendingDrainer.
func (s *membershipState) DrainPending() []PendingApp {
	p := s.pending
	s.pending = nil
	return p
}

// coord returns the lowest rank that is neither suspected nor leaving.
func (s *membershipState) coord() int {
	for r := 0; r < s.view.N(); r++ {
		if !s.suspects[r] && !s.leaving[r] {
			return r
		}
	}
	return 0
}

func (s *membershipState) iAmCoord() bool { return s.coord() == s.view.Rank }

// authorized reports whether rank from could legitimately be driving a
// view change: every rank below it must already be excluded in our own
// books (equivalently, from is no higher than our current coordinator).
// Without this check a partitioned member that has wrongly suspected
// everyone else — and therefore considers *itself* the coordinator —
// can poison survivors: its flush and singleton-view install leave
// under the old epoch, which every member still shares, and any
// survivor whose copy of the partitioned member's cast stream has no
// loss gap would accept the install, read its own absence as an
// expulsion, and restart as a singleton. The epoch tag cannot close
// this hole (the traffic is genuinely old-epoch); coordinator authority
// is the membership-level complement to it. Regression:
// TestPartitionedMemberCannotPoisonSurvivors.
func (s *membershipState) authorized(from int) bool { return from <= s.coord() }

// excluded reports whether rank r leaves the next view.
func (s *membershipState) excluded(r int) bool { return s.suspects[r] || s.leaving[r] }

func (s *membershipState) HandleDn(ev *event.Event, snk layer.Sink) {
	switch ev.Type {
	case event.ECast, event.ESend:
		// Only application traffic is held during a flush: protocol
		// traffic from the layers above (order announcements) must keep
		// flowing or the flush itself cannot complete.
		if s.blocked && ev.ApplMsg {
			p := PendingApp{IsCast: ev.Type == event.ECast, Payload: copyPayload(ev.Msg.Payload)}
			if !p.IsCast {
				p.Dst = s.view.Members[ev.Peer]
			}
			s.pending = append(s.pending, p)
			event.Free(ev)
			return
		}
		ev.Msg.Push(membPass{})
		snk.PassDn(ev)
	case event.ELeave:
		lv := event.Alloc()
		lv.Dir, lv.Type = event.Dn, event.ECast
		lv.Msg.Push(membLeave{Rank: int32(s.view.Rank)})
		snk.PassDn(lv)
		event.Free(ev)
	case event.EMergeRequest:
		// Partition merge: the group runtime computed a merged view and
		// asks this partition to adopt it. Announcing it through the
		// ordinary view mechanism installs it reliably at every member
		// of this partition (including us, via the local reflection).
		// The adopting partition does not run a flush: a partition heal
		// is already a discontinuity, and in-flight messages of the old
		// epoch are dropped at the switch (documented simplification).
		if ev.View != nil {
			v := event.Alloc()
			v.Dir, v.Type = event.Dn, event.ECast
			v.Msg.Push(membView{ViewSeq: ev.View.ID.Seq, Members: ev.View.Members})
			snk.PassDn(v)
		}
		event.Free(ev)
	default:
		snk.PassDn(ev)
	}
}

func (s *membershipState) HandleUp(ev *event.Event, snk layer.Sink) {
	switch ev.Type {
	case event.ECast:
		switch h := ev.Msg.Pop().(type) {
		case membPass:
			snk.PassUp(ev)
		case membFlush:
			if s.authorized(ev.Peer) {
				s.handleFlush(h, snk)
			}
			event.Free(ev)
		case membView:
			if s.authorized(ev.Peer) {
				s.handleView(h, snk)
			}
			event.Free(ev)
		case membLeave:
			s.handleExclusion([]int{int(h.Rank)}, true, snk)
			event.Free(ev)
		default:
			panic(fmt.Sprintf("membership: unexpected up cast header %T", h))
		}
	case event.ESend:
		switch h := ev.Msg.Pop().(type) {
		case membPass:
			snk.PassUp(ev)
		case membFlushOk:
			s.handleFlushOk(ev.Peer, h, snk)
			event.Free(ev)
		case membFlushTree:
			if s.fanout > 0 {
				s.handleFlushTree(ev.Peer, h, snk)
			}
			event.Free(ev)
		case membFlushAgg:
			if s.fanout > 0 {
				s.handleFlushAgg(ev.Peer, h, snk)
			}
			event.Free(ev)
		case membView:
			if s.fanout > 0 {
				s.handleViewSend(ev.Peer, h, snk)
			}
			event.Free(ev)
		default:
			panic(fmt.Sprintf("membership: unexpected up send header %T", h))
		}
	case event.ESuspect:
		// Announce upward for application visibility, then react.
		ranks := append([]int(nil), ev.Ranks...)
		snk.PassUp(ev)
		s.handleExclusion(ranks, false, snk)
	case event.EBlockOk:
		s.handleBlockOk(ev, snk)
	case event.ETimer:
		// Re-drive an unfinished flush: lost flush casts or unequal
		// vectors converge through the reliability layer's repair.
		if s.flushing && s.iAmCoord() {
			s.castFlush(snk)
		}
		snk.PassUp(ev)
	default:
		snk.PassUp(ev)
	}
}

// handleExclusion records members leaving the next view and, on the
// coordinator, starts a view change.
func (s *membershipState) handleExclusion(ranks []int, leave bool, snk layer.Sink) {
	changed := false
	for _, r := range ranks {
		if r < 0 || r >= s.view.N() || s.excluded(r) {
			continue
		}
		if leave {
			s.leaving[r] = true
		} else {
			s.suspects[r] = true
		}
		changed = true
	}
	if !changed {
		return
	}
	if s.iAmCoord() {
		s.flushing = true
		s.proposedSeq = s.view.ID.Seq + 1
		s.castFlush(snk)
	}
}

// castFlush starts a fresh flush round: stale replies are recognized by
// their round number.
func (s *membershipState) castFlush(snk layer.Sink) {
	if s.fanout > 0 {
		s.castFlushTree(snk)
		return
	}
	// The frontier is the element-wise max over last round's reports.
	var frontier []int64
	for _, vec := range s.vectors {
		if vec == nil {
			continue
		}
		if frontier == nil {
			frontier = make([]int64, len(vec))
		}
		for i, v := range vec {
			if i < len(frontier) && v > frontier[i] {
				frontier[i] = v
			}
		}
	}
	s.round++
	s.vectors = make([][]int64, s.view.N())
	f := event.Alloc()
	f.Dir, f.Type = event.Dn, event.ECast
	f.Msg.Push(membFlush{ViewSeq: s.proposedSeq, Round: s.round, Frontier: frontier})
	snk.PassDn(f)
}

// handleFlush blocks the application and harvests the reliability
// layer's receive vector via the EBlock/EBlockOk round trip. The
// EBlockOk reply arrives synchronously within the same scheduling run,
// so the round recorded here is the round the reply belongs to.
func (s *membershipState) handleFlush(h membFlush, snk layer.Sink) {
	s.flushing = true
	s.proposedSeq = h.ViewSeq
	s.round = h.Round
	s.applyFlush(h.Frontier, snk)
}

// applyFlush is the local half of a flush announcement, shared by the
// flat cast path and the tree path: block the application, hand the
// repair frontier to the reliability layer, and harvest our receive
// vector through the EBlock/EBlockOk round trip.
func (s *membershipState) applyFlush(frontier []int64, snk layer.Sink) {
	s.blocked = true
	if len(frontier) == s.view.N() {
		// Let the reliability layer repair any gap the group has already
		// seen past.
		ack := event.Alloc()
		ack.Dir, ack.Type = event.Dn, event.EAck
		ack.Stability = append([]int64(nil), frontier...)
		snk.PassDn(ack)
	}
	if !s.appNotified {
		s.appNotified = true
		blockUp := event.Alloc()
		blockUp.Dir, blockUp.Type = event.Up, event.EBlock
		snk.PassUp(blockUp)
	}
	blockDn := event.Alloc()
	blockDn.Dir, blockDn.Type = event.Dn, event.EBlock
	snk.PassDn(blockDn)
}

// handleBlockOk forwards our receive vector to the coordinator.
func (s *membershipState) handleBlockOk(ev *event.Event, snk layer.Sink) {
	vec := append([]int64(nil), ev.Stability...)
	event.Free(ev)
	if !s.flushing {
		return
	}
	if s.fanout > 0 {
		// Tree mode: our vector enters the local fold instead of going
		// straight to the coordinator.
		s.aggRecordOwn(vec, snk)
		return
	}
	if s.iAmCoord() {
		s.recordVector(s.view.Rank, vec, snk)
		return
	}
	ok := event.Alloc()
	ok.Dir, ok.Type, ok.Peer = event.Dn, event.ESend, s.coord()
	ok.Msg.Push(membFlushOk{ViewSeq: s.proposedSeq, Round: s.round, Vector: vec})
	snk.PassDn(ok)
}

func (s *membershipState) handleFlushOk(from int, h membFlushOk, snk layer.Sink) {
	if !s.flushing || !s.iAmCoord() || h.ViewSeq != s.proposedSeq || h.Round != s.round {
		return
	}
	s.recordVector(from, h.Vector, snk)
}

// recordVector stores a member's receive vector and installs the new
// view once every survivor holds the same casts from every survivor.
func (s *membershipState) recordVector(from int, vec []int64, snk layer.Sink) {
	s.vectors[from] = vec
	for r := 0; r < s.view.N(); r++ {
		if s.excluded(r) {
			continue
		}
		if s.vectors[r] == nil {
			return
		}
	}
	// All survivors reported: require agreement on every origin,
	// including excluded ones. An excluded member's casts may have
	// reached some survivors and not others; installing the view anyway
	// would let some members deliver casts the rest never see (and, with
	// an ordering layer on top, stall the laggards behind a sequence
	// number that can no longer be filled). The frontier in the next
	// flush round re-NAKs such gaps, and mnak's kept copies of other
	// origins' casts let any survivor serve them on the unreachable
	// origin's behalf.
	var ref []int64
	for r := 0; r < s.view.N(); r++ {
		if s.excluded(r) {
			continue
		}
		if ref == nil {
			ref = s.vectors[r]
			continue
		}
		for o := 0; o < s.view.N(); o++ {
			if s.vectors[r][o] != ref[o] {
				return // not yet stable; the timer re-drives the flush
			}
		}
	}
	s.announceView(snk)
}

// announceView builds the agreed next view from the current exclusion
// books and disseminates it: a single cast in flat mode, tree sends
// plus direct sends to the excluded in tree mode.
func (s *membershipState) announceView(snk layer.Sink) {
	var members []event.Addr
	for r := 0; r < s.view.N(); r++ {
		if !s.excluded(r) {
			members = append(members, s.view.Members[r])
		}
	}
	h := membView{ViewSeq: s.proposedSeq, Members: members}
	if s.fanout > 0 {
		s.sendTreeView(h, snk)
		return
	}
	v := event.Alloc()
	v.Dir, v.Type = event.Dn, event.ECast
	v.Msg.Push(h)
	snk.PassDn(v)
}

// handleView installs the announced view: the group runtime rebuilds the
// stack in response to EView (or tears it down on EExit if we were
// excluded).
func (s *membershipState) handleView(h membView, snk layer.Sink) {
	myAddr := s.view.Members[s.view.Rank]
	rank := -1
	for i, m := range h.Members {
		if m == myAddr {
			rank = i
			break
		}
	}
	if rank < 0 {
		if s.leaving[s.view.Rank] {
			// Our own graceful leave: this stack is done.
			ex := event.Alloc()
			ex.Dir, ex.Type = event.Up, event.EExit
			snk.PassUp(ex)
			return
		}
		// Excluded involuntarily (a false suspicion, or a partition seen
		// from the other side): continue as a singleton group and let
		// the merge protocol reunite us, exactly as if the network had
		// partitioned us away.
		nv := &event.View{
			ID:      event.ViewID{Coord: myAddr, Seq: h.ViewSeq + 1},
			Group:   s.view.Group,
			Members: []event.Addr{myAddr},
		}
		s.flushing = false
		up := event.Alloc()
		up.Dir, up.Type, up.View = event.Up, event.EView, nv
		snk.PassUp(up)
		return
	}
	nv := &event.View{
		ID:      event.ViewID{Coord: h.Members[0], Seq: h.ViewSeq},
		Group:   s.view.Group,
		Members: h.Members,
		Rank:    rank,
	}
	s.flushing = false
	up := event.Alloc()
	up.Dir, up.Type, up.View = event.Up, event.EView, nv
	snk.PassUp(up)
}
