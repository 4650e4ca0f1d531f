package netsim

// The sharded scheduler core. A Cluster partitions its endpoints into
// shards; each shard owns an event heap, an insertion-sequence counter,
// a monotone time floor, a seeded RNG, a frame walker, and a trace
// buffer. The three phases of a round (commit, route, drain) run the
// shards in parallel over a small worker pool; the only global
// rendezvous is the barrier between phases, where cross-shard transfer
// queues are ingested in canonical (target, source, append) order.
// Because every shard-local decision (heap order, RNG draws, trace
// bytes) depends only on shard-local deterministic state, and the
// barrier ingest order is fixed, the schedule is a pure function of the
// seed and the shard count — Run and RunConcurrent stay byte-identical.

import (
	"container/heap"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"
	"sync/atomic"

	"ensemble/internal/event"
	"ensemble/internal/obs"
	"ensemble/internal/transport"
)

// resyncReq is one queued request to answer a cross-frame generation
// miss. routePhase cannot emit traffic (shards route in parallel and
// sends draw from the RNG at commit time), so arrive records the
// request and the next commitPhase answers it — before replaying
// member effects, at the queued arrival time — keeping resync emission
// a deterministic function of the schedule.
type resyncReq struct {
	t    int64
	from event.Addr // the victim receiver, which emits the resync
	to   event.Addr // the sender whose delta chain must restart
	cast bool
	gen  uint64
}

// shardEvent is one scheduled occurrence inside a shard: a packet
// arrival (kind sevArrive) or a deferred function destined for a
// member's mailbox (kind sevMail — timers, Enqueue work, Post
// handoffs). seq is assigned by the owning shard at push time; events
// crossing shards travel seq-less in an outbox and get their target
// sequence at barrier ingest.
type shardEvent struct {
	t    int64
	seq  int64
	idx  int32 // destination endpoint index; -1 = drop accounting only
	kind uint8
	pkt  Packet
	fn   func()
}

const (
	sevArrive uint8 = iota
	sevMail
)

type shardPQ []shardEvent

func (q shardPQ) Len() int { return len(q) }
func (q shardPQ) Less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}
func (q shardPQ) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *shardPQ) Push(x any)   { *q = append(*q, x.(shardEvent)) }
func (q *shardPQ) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = shardEvent{}
	*q = old[:n-1]
	return it
}

// shard owns a contiguous block of the cluster's endpoints and all
// scheduler state needed to route and commit their traffic without
// touching another shard's.
type shard struct {
	c   *Cluster
	id  int
	eps []*Endpoint

	pq  shardPQ
	seq int64
	// now is the shard's monotone time floor: the time of the last event
	// this shard popped. Pushes clamp past times to it, exactly as the
	// unsharded scheduler clamped against the global clock, so per-shard
	// virtual time never runs backwards.
	now int64

	rng    *rand.Rand
	walker *transport.FrameWalker
	trace  []byte

	// commitBase is the virtual time of the effect currently being
	// committed (the emitting member's handling time); deliveries are
	// scheduled relative to it.
	commitBase int64

	// outbox[k] accumulates events this shard's commit produced for
	// shard k. Each (source, target) cell is written only by the source
	// during commit and drained only by the target during barrier
	// ingest, so no lock is needed.
	outbox [][]shardEvent

	// resyncQ accumulates generation-miss resync requests observed
	// during routePhase, drained at the top of the next commitPhase.
	resyncQ []resyncReq

	// detachQ defers dropping detaching endpoints from cast fan-out to
	// the barrier: commits run in parallel and every shard's castVia
	// reads the listed flags, so they may only change between phases.
	detachQ []*Endpoint

	// routed is the event count of the last route phase; the adaptive
	// quantum controller reads per-shard routed density.
	routed int64

	ctrRouted, ctrCommitted, ctrXIn, ctrXOut obs.Counter
}

func newShard(c *Cluster, id int, nshards int) *shard {
	s := &shard{
		c:      c,
		id:     id,
		rng:    rand.New(rand.NewSource(c.seed ^ int64(0x9E3779B97F4A7C15*uint64(id+1)))),
		walker: transport.NewFrameWalker(transport.EpochPrefixUvarints, true),
		outbox: make([][]shardEvent, nshards),
	}
	return s
}

// push assigns a sequence number and schedules ev on this shard's heap,
// clamping past times to the shard's floor.
func (s *shard) push(ev shardEvent) {
	if ev.t < s.now {
		ev.t = s.now
	}
	s.seq++
	ev.seq = s.seq
	heap.Push(&s.pq, ev)
}

// deliver is the commit-phase delivery sink handed to Net.sendVia: a
// transmission leaving a member of this shard lands either on this
// shard's own heap or in the outbox cell of the destination's shard.
func (s *shard) deliver(p Packet, delay int64) {
	t := s.commitBase + delay
	idx, ok := s.c.byAddr[p.To]
	if !ok {
		// Destination was never a cluster endpoint: account the drop
		// (there is no trace line for it, matching the unsharded
		// scheduler).
		s.c.net.stats.dropped.Inc()
		return
	}
	s.post(shardEvent{t: t, idx: int32(idx), kind: sevArrive, pkt: p})
}

// post routes ev to the shard owning its destination endpoint: own heap
// directly, or the cross-shard outbox.
func (s *shard) post(ev shardEvent) {
	target := s.c.eps[ev.idx].shard
	if target == s {
		s.push(ev)
		return
	}
	s.ctrXOut.Inc()
	s.outbox[target.id] = append(s.outbox[target.id], ev)
}

// ingestFrom pulls the events every source shard produced for this
// shard during the commit phase, in (source, append) order — both
// deterministic — and schedules them behind everything already pushed.
func (s *shard) ingestFrom(shards []*shard) {
	for _, src := range shards {
		box := src.outbox[s.id]
		for i := range box {
			s.ctrXIn.Inc()
			s.push(box[i])
			box[i] = shardEvent{}
		}
		src.outbox[s.id] = box[:0]
	}
}

// routePhase pops every event in the batch window, in (time, sequence)
// order, delivering arrivals and mailbox work to this shard's members.
func (s *shard) routePhase(batchEnd int64) {
	routed := int64(0)
	for len(s.pq) > 0 && s.pq[0].t <= batchEnd {
		ev := heap.Pop(&s.pq).(shardEvent)
		s.now = ev.t
		if ev.idx < 0 {
			routed++
			continue
		}
		ep := s.c.eps[ev.idx]
		switch ev.kind {
		case sevArrive:
			s.arrive(ep, ev.t, ev.pkt)
		case sevMail:
			ep.mailbox = append(ep.mailbox, mail{t: ev.t, fn: ev.fn})
		}
		routed++
	}
	s.routed = routed
	s.ctrRouted.Add(routed)
}

// arrive delivers one transmission to ep at time t. Delivery (and the
// trace line, and the books) is per transmission: a batched frame is
// one 'd' however many wires it carries; the fan-out into one mail per
// sub-packet happens here, so the member's recv sees exactly the
// raw-wire interface it always did.
func (s *shard) arrive(ep *Endpoint, t int64, p Packet) {
	if ep.detached || ep.recv == nil {
		s.c.net.stats.dropped.Inc()
		s.traceLine('x', t, p)
		return
	}
	s.c.net.stats.delivered.Inc()
	s.traceLine('d', t, p)
	if !transport.IsFrame(p.Data) {
		ep.mailbox = append(ep.mailbox, mail{t: t, pkt: p})
		return
	}
	s.c.net.stats.frames.Inc()
	// The walker runs in stable mode, so delta-reconstructed subs (like
	// classic ones, which alias the per-transmit frame copy) stay valid
	// from this mailbox append through the member's drain-phase
	// consumption and beyond. Per-link mirror state is consistent
	// because deliveries to an endpoint always run on its owning shard.
	res := s.walker.WalkLink(p.From, p.To, p.Data, func(sub []byte) {
		s.c.net.stats.subPackets.Inc()
		q := p
		q.Data = sub
		ep.mailbox = append(ep.mailbox, mail{t: t, pkt: q})
	})
	if res.StaleGen {
		s.c.net.stats.staleGenFrames.Inc()
	}
	if res.GenMiss {
		s.c.net.stats.genMisses.Inc()
		s.resyncQ = append(s.resyncQ, resyncReq{t: t, from: p.To, to: p.From, cast: res.Cast, gen: res.Gen})
	}
}

// commitPhase replays the effect logs of this shard's members in
// canonical member order. This is the only place member-produced work
// touches the RNG and heaps — and each shard touches only its own,
// which is what lets commits run in parallel.
func (s *shard) commitPhase() {
	// Answer the generation misses the last route phase observed before
	// replaying member effects: the resync packet leaves the victim at
	// its arrival time, through the ordinary send path (RNG draw, loss,
	// delay), so Run and RunConcurrent emit identical resync traffic.
	if len(s.resyncQ) > 0 {
		rq := s.resyncQ
		s.resyncQ = s.resyncQ[:0]
		for i := range rq {
			r := &rq[i]
			s.commitBase = r.t
			s.c.net.stats.resyncs.Inc()
			s.c.net.sendVia(s.rng, s, r.from, r.to, transport.AppendResync(nil, r.cast, r.gen))
			rq[i] = resyncReq{}
		}
	}
	for _, ep := range s.eps {
		effs := ep.effects
		ep.effects = ep.effects[:0]
		for i := range effs {
			e := &effs[i]
			s.commitBase = e.base
			switch e.kind {
			case effSend:
				if s.c.tracing {
					s.trace = fmt.Appendf(s.trace, "s t=%d %d->%d n=%d crc=%08x\n",
						e.base, ep.addr, e.to, len(e.data), crc32.ChecksumIEEE(e.data))
				}
				s.c.net.sendVia(s.rng, s, ep.addr, e.to, e.data)
			case effCast:
				if s.c.tracing {
					s.trace = fmt.Appendf(s.trace, "s t=%d %d->* n=%d crc=%08x\n",
						e.base, ep.addr, len(e.data), crc32.ChecksumIEEE(e.data))
				}
				s.c.net.castVia(s.rng, s, ep.addr, e.data)
			case effAfter:
				s.push(shardEvent{t: e.base + e.delay, idx: int32(ep.idx), kind: sevMail, fn: e.fn})
			case effPost:
				if tidx, ok := s.c.byAddr[e.to]; ok {
					s.post(shardEvent{t: e.base + e.delay, idx: int32(tidx), kind: sevMail, fn: e.fn})
				}
			case effDetach:
				ep.detached = true
				s.detachQ = append(s.detachQ, ep)
			}
			if e.data != nil {
				ep.spare = append(ep.spare, e.data)
			}
			*e = effect{}
			s.ctrCommitted.Inc()
		}
	}
}

func (s *shard) traceLine(tag byte, t int64, p Packet) {
	if !s.c.tracing {
		return
	}
	s.trace = fmt.Appendf(s.trace, "%c t=%d %d<-%d cast=%t n=%d crc=%08x\n",
		tag, t, p.To, p.From, p.Cast, len(p.Data), crc32.ChecksumIEEE(p.Data))
}

// nextTime reports the earliest pending event time on this shard.
func (s *shard) nextTime() (int64, bool) {
	if len(s.pq) == 0 {
		return 0, false
	}
	return s.pq[0].t, true
}

// ---- worker pool ----

// pool is a fixed set of worker goroutines shared by all parallel
// phases of one concurrent run. Work is claim-based: a phase publishes
// a job of n independent items and every worker steals indices off an
// atomic cursor until the job drains, so an expensive shard (or member
// drain) never leaves the other workers idle behind a static split.
type pool struct {
	chans []chan *job
}

type job struct {
	n      int32
	cursor atomic.Int32
	f      func(int)
	wg     sync.WaitGroup
}

func newPool(workers int) *pool {
	p := &pool{chans: make([]chan *job, workers)}
	for i := range p.chans {
		ch := make(chan *job, 1)
		p.chans[i] = ch
		go func() {
			for j := range ch {
				for {
					i := j.cursor.Add(1) - 1
					if i >= j.n {
						break
					}
					j.f(int(i))
				}
				j.wg.Done()
			}
		}()
	}
	return p
}

// run executes f(0..n-1) across the pool and waits for the barrier. The
// channel send / WaitGroup pair is the happens-before edge that hands
// shard and mailbox ownership across goroutines between phases.
func (p *pool) run(n int, f func(int)) {
	if n == 0 {
		return
	}
	j := &job{n: int32(n), f: f}
	j.wg.Add(len(p.chans))
	for _, ch := range p.chans {
		ch <- j
	}
	j.wg.Wait()
}

func (p *pool) stop() {
	for _, ch := range p.chans {
		close(ch)
	}
}

// runJob runs one phase: inline (deterministic order, zero overhead)
// when sequential or trivially small, stolen across the pool otherwise.
func (c *Cluster) runJob(rp *pool, n int, f func(int)) {
	if rp == nil || n <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	rp.run(n, f)
}
