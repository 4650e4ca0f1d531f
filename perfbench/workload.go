package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"ensemble/internal/bench"
	"ensemble/internal/core"
	"ensemble/internal/event"
	"ensemble/internal/layer"
	"ensemble/internal/layers"
	"ensemble/internal/netsim"
	"ensemble/internal/opt"
	"ensemble/internal/stack"
	"ensemble/internal/transport"
)

// workload is one named traffic pattern. Submissions follow a fixed
// virtual-time schedule (open loop in virtual time), so the time an
// episode takes is the cost of processing a fixed input.
type workload struct {
	name string
	why  string

	members   int
	stack     []string
	optimized bool // MACH bypass engines (NewOptimizedMember)
	profile   func() netsim.Profile
	shards    int

	size        int   // application payload bytes (>= payloadHeader)
	roundPeriod int64 // virtual ns between a member's rounds
	rounds      int   // rounds per episode
	castEvery   int   // a member casts in rounds where (round+rank)%castEvery == 0
	ringSends   int   // point-to-point sends per round to rank+1
	totalOrder  bool  // every member delivers casts in one order
	leave       bool  // one graceful Leave once the group is quiescent
	setupReps   int   // group constructions timed per episode (setup_s)
}

var workloads = []*workload{
	{
		name: "alltoall8",
		why: "the paper's flagship: 8 members, Stack10 under MACH, each casting 64 B once per 200 us slot on loss-free Ethernet; " +
			"stresses the sequencer, mnak copies, the bypass and the delta wire",
		members: 8, stack: layers.Stack10(), optimized: true, profile: netsim.Ethernet100, shards: 1,
		size: 64, roundPeriod: 200_000, rounds: 3000, castEvery: 1, totalOrder: true, setupReps: 3,
	},
	{
		name: "scale64",
		why: "64 members, FIFO vsync stack under FUNC (no total, no bypass) casting 32 B once per 200 us slot, then one graceful Leave; " +
			"stresses the O(N^3) stability scan and tree membership",
		members: 64, stack: bench.ScaleStack(), optimized: false, profile: netsim.Ethernet100, shards: 8,
		size: 32, roundPeriod: 200_000, rounds: 24, castEvery: 1, leave: true, setupReps: 12,
	},
	{
		name: "lossy_mixed8",
		why: "8 members, StackFifo plus collect under MACH on a 3% lossy link: two ring sends per 10 ms round, a cast every 20th round; " +
			"stresses repair (acks, retransmits, NAKs)",
		members: 8, stack: fifoWithCollect(), optimized: true, profile: func() netsim.Profile { return netsim.Lossy(0.03) }, shards: 1,
		size: 64, roundPeriod: 10_000_000, rounds: 5000, castEvery: 20, ringSends: 2, setupReps: 6,
	},
}

// fifoWithCollect is StackFifo with the stability layer above frag.
// StackFifo alone cannot repair a lossy link: mnak NAKs each gap once,
// and only collect's periodic gossip re-reveals a gap whose NAK or
// retransmission was lost, or a lost last cast.
func fifoWithCollect() []string {
	return []string{layers.Top, layers.Local, layers.Collect, layers.Frag, layers.Pt2pt, layers.Mnak, layers.Bottom}
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// hasLayer reports whether the workload's stack includes the named layer.
func (w *workload) hasLayer(name string) bool {
	for _, n := range w.stack {
		if n == name {
			return true
		}
	}
	return false
}

// ticksPerRound is the number of schedule steps per round: one per ring
// send (the first also carries the round's cast), or one for cast-only
// workloads.
func (w *workload) ticksPerRound() int {
	if w.ringSends > 0 {
		return w.ringSends
	}
	return 1
}

// castsBy and sendsBy count rank's submissions in one episode.
func (w *workload) castsBy(rank int) int {
	n := 0
	for i := 0; i < w.rounds; i++ {
		if (i+rank)%w.castEvery == 0 {
			n++
		}
	}
	return n
}

func (w *workload) sendsBy(int) int { return w.rounds * w.ringSends }

// messages is the number of application messages one episode submits.
func (w *workload) messages() int64 {
	var n int64
	for r := 0; r < w.members; r++ {
		n += int64(w.castsBy(r) + w.sendsBy(r))
	}
	return n
}

// submitEnd is the virtual time by which every submission has been made.
func (w *workload) submitEnd() int64 { return int64(w.rounds) * w.roundPeriod }

// mix is SplitMix64: the benchmark derives every input from the seed
// with it, so the same seed gives the same inputs.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// submitAt is the virtual time of rank's tick-th submission step: a
// seed-derived instant inside the step's slot, so submissions keep their
// average rate and order while the seed moves every one of them (and
// with them the latencies).
func (w *workload) submitAt(seed int64, rank, tick int) int64 {
	step := w.roundPeriod / int64(w.ticksPerRound())
	jitter := mix(uint64(seed)*1_000_003 ^ uint64(rank)<<40 ^ uint64(tick))
	return int64(tick)*step + int64(jitter%uint64(step))
}

// leaver is the seed-chosen member that leaves (never the coordinator).
func (w *workload) leaver(seed int64) int {
	return 1 + int(mix(uint64(seed)^0x5eed)%uint64(w.members-1))
}

// Message ids travel in the payload: kind, origin rank, per-origin (and
// for sends per-destination) sequence number.
const (
	kindCast = 1
	kindSend = 2

	payloadHeader = 16 // virtual send stamp + message id
)

func msgID(kind, origin int, seq int64) uint64 {
	return uint64(kind)<<56 | uint64(origin)<<32 | uint64(seq)
}

func splitID(id uint64) (kind, origin int, seq int64) {
	return int(id >> 56), int(id>>32) & 0xffffff, int64(id & 0xffffffff)
}

// group is one built member set.
type group struct {
	cluster *netsim.Cluster
	members []*core.Member
	eps     []*netsim.Endpoint
}

// buildGroup constructs the workload's members over a fresh cluster.
// With a tracer, each member talks to a span-recording wrapper of its
// endpoint instead of the endpoint itself.
func buildGroup(w *workload, seed int64, handlers func(rank int) core.Handlers, tr *tracer) (*group, error) {
	c := netsim.NewCluster(seed, w.profile())
	c.SetShards(w.shards)
	addrs := make([]event.Addr, w.members)
	for i := range addrs {
		addrs[i] = event.Addr(i + 1)
	}
	g := &group{cluster: c}
	for i := 0; i < w.members; i++ {
		ep := c.NewEndpoint(addrs[i])
		v := event.NewView("perfbench", 1, addrs, i)
		var net core.Network = ep
		var clk core.Clock = ep
		if tr != nil {
			t := tr.wrap(ep, i)
			net, clk = t, t
		}
		var m *core.Member
		var err error
		if w.optimized {
			m, err = core.NewOptimizedMember(clk, net, v, w.stack, stack.Func, handlers(i))
		} else {
			m, err = core.NewMember(clk, net, v, w.stack, stack.Func, handlers(i))
		}
		if err != nil {
			return nil, err
		}
		m.Start()
		g.eps = append(g.eps, ep)
		g.members = append(g.members, m)
	}
	// The cluster keeps its default scheduling quantum (only events at
	// the same virtual instant share a drain). The adaptive quantum
	// moves submissions and deliveries to the end of windows up to
	// 100 ms wide, and made latencies and the live heap flip between
	// regimes from one seed to the next.
	return g, nil
}

// timeSetup times one more construction of the episode's group (after
// an untimed collection, as the episode's own construction), for
// setup_s samples beyond the one each episode takes.
func timeSetup(w *workload, seed int64) (cost, error) {
	runtime.GC()
	sw := startWatch()
	_, err := buildGroup(w, seed, func(int) core.Handlers { return core.Handlers{} }, nil)
	return sw.stop(), err
}

// buildEngineOnce times one direct opt.NewEngine for the workload's
// stack and a view of its size (rank 0) — the per-member MACH
// compilation a view change pays.
func buildEngineOnce(w *workload) (time.Duration, error) {
	addrs := make([]event.Addr, w.members)
	for i := range addrs {
		addrs[i] = event.Addr(i + 1)
	}
	cfg := layer.DefaultConfig(event.NewView("perfbench", 1, addrs, 0))
	t0 := time.Now()
	_, err := opt.NewEngine(w.stack, cfg, stack.Func)
	return time.Since(t0), err
}

// detCounts are the episode's deterministic outputs: a pure function of
// the code, the workload and the seed. Every episode of a seed, traced
// or not, in any process, must reproduce them exactly.
type detCounts struct {
	Messages       int64    `json:"messages"`
	Deliveries     int64    `json:"deliveries"`
	VlatSamples    int64    `json:"vlat_samples"`
	VlatP50Us      float64  `json:"vlat_p50_us"`
	VlatP99Us      float64  `json:"vlat_p99_us"`
	BytesOnWire    int64    `json:"bytes_on_wire"`
	QuiesceVirtNs  int64    `json:"quiesce_virtual_ns"`
	LastDeliveryNs int64    `json:"last_delivery_virtual_ns"`
	StableLagNs    int64    `json:"stable_lag_virtual_ns"`
	OrderDigest    uint64   `json:"order_digest"`
	NetSent        int64    `json:"net_sent"`
	NetDelivered   int64    `json:"net_delivered"`
	NetDropped     int64    `json:"net_dropped"`
	NetDuplicated  int64    `json:"net_duplicated"`
	NetFrames      int64    `json:"net_frames"`
	NetSubPackets  int64    `json:"net_sub_packets"`
	PathHits       []int64  `json:"opt_path_hits"`
	PathMisses     []int64  `json:"opt_path_misses"`
	Batch          batchDet `json:"batch"`
	ViewChangeNs   int64    `json:"view_change_virtual_ns"`
	ViewPkts       int64    `json:"view_pkts"`
	ViewBytes      int64    `json:"view_bytes"`
}

type batchDet struct {
	SubPackets, Frames, DeltaSubs, Flushes int64
	SizeFlushes, EntryEndFlushes           int64
	BarrierFlushes, Holds                  int64
}

// episode is one measured pass over the workload.
type episode struct {
	traced  bool
	setup   []cost // group constructions: the episode's own first
	traffic cost   // the traffic phase (the heap reading's GC excluded)

	heapBytes uint64 // HeapAlloc after a forced GC at submitEnd
	mallocs   uint64 // heap allocations during the traffic phase
	poolNews  int64  // event/header pool misses during the traffic phase
	det       detCounts
	failed    int64    // failed messages (and a failed view change)
	attempted int64    // messages submitted (and the view change)
	notes     []string // what failed
}

// rate is the episode's application messages per second of CPU time,
// or of wall time.
func (e *episode) rate(cpu bool) float64 {
	d := e.traffic.wall
	if cpu {
		d = e.traffic.cpu
	}
	return float64(e.det.Messages) / d.Seconds()
}

// quiesceChunk is the virtual slice the driver advances between
// quiescence checks once submissions are over.
const quiesceChunk = int64(5e6)

// maxTail bounds the post-submission virtual time an episode may take to
// go quiescent before its missing deliveries count as failures.
const maxTail = int64(30e9)

// faultFn, when set, filters deliveries before the checker sees them:
// the benchmark's tests inject a dropped or reordered delivery with it.
type faultFn func(rank int, deliver func(origin int, payload []byte)) func(origin int, payload []byte)

// runEpisode builds a group, drives one episode of the workload through
// it, and checks every output.
func runEpisode(w *workload, seed int64, tr *tracer, fault faultFn) (*episode, error) {
	ep := &episode{traced: tr != nil}
	chk := newChecker(w)
	var g *group
	now := func(rank int) int64 { return g.eps[rank].Now() }
	sweep := layer.DefaultConfig(event.NewView("perfbench", 1, []event.Addr{1}, 0)).SweepInterval
	handlers := func(rank int) core.Handlers {
		deliver := func(origin int, payload []byte) {
			tr.deliver(payload)
			chk.deliver(rank, origin, payload, now(rank))
			tr.end()
		}
		if fault != nil {
			deliver = fault(rank, deliver)
		}
		return core.Handlers{
			OnCast: deliver,
			OnSend: deliver,
			OnStable: func([]int64) {
				chk.stableAt[rank] = now(rank)
			},
			OnView: func(v *event.View) { chk.view(rank, v, now(rank)) },
			OnExit: func() { chk.exited[rank] = true },
		}
	}

	runtime.GC()
	sw := startWatch()
	var err error
	g, err = buildGroup(w, seed, handlers, tr)
	if err != nil {
		return nil, err
	}
	ep.setup = append(ep.setup, sw.stop())
	if tr != nil {
		for _, m := range g.members {
			m.Batcher().SetHoldObserver(tr.hold)
		}
	}
	scheduleSubmissions(w, seed, g, chk, tr)

	// Data phase: run to the end of submissions, pause (untimed) for the
	// live-heap reading, then run on in chunks until quiescence.
	hasCollect := w.hasLayer(layers.Collect)
	quiet := func() bool {
		if !chk.complete() {
			return false
		}
		if !hasCollect {
			return true
		}
		// Every member has seen the stability frontier advance at least
		// one gossip round after the last delivery.
		for _, t := range chk.stableAt {
			if t < chk.doneAt+sweep {
				return false
			}
		}
		return true
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	pool0 := poolNews()
	tr.startTraffic()
	sw = startWatch()
	g.cluster.Run(w.submitEnd())
	ep.traffic = sw.stop()
	if tr == nil {
		// Twice: the first collection moves pooled objects to the
		// victim cache, the second frees them.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms1)
		ep.heapBytes = ms1.HeapAlloc
	}
	sw = startWatch()
	limit := w.submitEnd() + maxTail
	for !quiet() && g.cluster.Sim().Now() < limit {
		g.cluster.Run(g.cluster.Sim().Now() + quiesceChunk)
	}
	ep.traffic = ep.traffic.add(sw.stop())
	tr.stopTraffic()
	runtime.ReadMemStats(&ms1)
	ep.mallocs = ms1.Mallocs - ms0.Mallocs
	ep.poolNews = poolNews() - pool0

	d := &ep.det
	d.Messages = w.messages()
	d.Deliveries = chk.delivered
	d.QuiesceVirtNs = g.cluster.Sim().Now()
	d.LastDeliveryNs = chk.doneAt
	if hasCollect {
		// How long after the last submission the stability frontier took
		// to cover it everywhere: the retention window of mnak's copies.
		for _, t := range chk.stableAt {
			if t-chk.lastSubmit > d.StableLagNs {
				d.StableLagNs = t - chk.lastSubmit
			}
		}
	}
	d.VlatSamples = int64(len(chk.vlat))
	d.VlatP50Us = chk.vlatQuantile(0.50) / 1e3
	d.VlatP99Us = chk.vlatQuantile(0.99) / 1e3
	ns := g.cluster.Net().Stats()
	d.BytesOnWire = ns.BytesOnWire
	d.NetSent, d.NetDelivered, d.NetDropped, d.NetDuplicated = ns.Sent, ns.Delivered, ns.Dropped, ns.Duplicated
	d.NetFrames, d.NetSubPackets = ns.Frames, ns.SubPackets
	d.PathHits = make([]int64, opt.NumPaths)
	d.PathMisses = make([]int64, opt.NumPaths)
	var bs transport.BatcherStats
	for _, m := range g.members {
		if e := m.Engine(); e != nil {
			st := e.Stats()
			for p := range d.PathHits {
				d.PathHits[p] += st.PathHits[p]
				d.PathMisses[p] += st.PathMisses[p]
			}
		}
		bs.Add(m.Batcher().Stats())
	}
	d.Batch = batchDet{bs.SubPackets, bs.Frames, bs.DeltaSubs, bs.Flushes,
		bs.SizeFlushes, bs.EntryEndFlushes, bs.BarrierFlushes, bs.Holds}

	ep.attempted = d.Messages
	if !quiet() && chk.complete() {
		// Everything arrived but stability never covered it (missing
		// deliveries are counted per message by finish).
		ep.failed++
		ep.notes = append(ep.notes, fmt.Sprintf("stability did not cover the last delivery within %d ns", maxTail))
	}
	if w.leave {
		ep.attempted++
		if note := runLeave(w, seed, g, chk, d, sweep); note != "" {
			ep.failed++
			ep.notes = append(ep.notes, note)
		}
	}
	failed, notes := chk.finish()
	ep.failed += failed
	ep.notes = append(ep.notes, notes...)
	d.OrderDigest = chk.digest()
	chk.release()
	return ep, nil
}

// scheduleSubmissions starts one submission chain per member: a step
// runs on the member's own goroutine at its scheduled virtual instant,
// submits, and enqueues the member's next step. (The cluster keeps its
// default quantum, so a step enqueued from inside the run is never
// clamped off its instant; and one pending step per member keeps the
// input out of the scheduler's heap.)
func scheduleSubmissions(w *workload, seed int64, g *group, chk *checker, tr *tracer) {
	tpr := w.ticksPerRound()
	total := w.rounds * tpr
	for rank := 0; rank < w.members; rank++ {
		rank := rank
		m := g.members[rank]
		clk := g.eps[rank]
		buf := make([]byte, w.size)
		for i := payloadHeader; i < len(buf); i++ {
			buf[i] = byte(mix(uint64(seed) + uint64(i)))
		}
		var castSeq, sendSeq int64
		tick := 0
		var step func()
		step = func() {
			chk.lastSubmit = max(chk.lastSubmit, clk.Now())
			round, sub := tick/tpr, tick%tpr
			if sub == 0 && (round+rank)%w.castEvery == 0 {
				id := msgID(kindCast, rank, castSeq)
				castSeq++
				binary.LittleEndian.PutUint64(buf, uint64(clk.Now()))
				binary.LittleEndian.PutUint64(buf[8:], id)
				tr.beginAt(spanCast, id, rank)
				m.Cast(buf)
				tr.end()
			}
			if w.ringSends > 0 {
				dst := (rank + 1) % w.members
				id := msgID(kindSend, rank, sendSeq)
				sendSeq++
				binary.LittleEndian.PutUint64(buf, uint64(clk.Now()))
				binary.LittleEndian.PutUint64(buf[8:], id)
				tr.beginAt(spanCast, id, rank)
				if err := m.Send(dst, buf); err != nil {
					chk.fail(id, "send: "+err.Error())
				}
				tr.end()
			}
			tick++
			if tick < total {
				g.cluster.Enqueue(rank, w.submitAt(seed, rank, tick)-clk.Now(), step)
			}
		}
		g.cluster.Enqueue(rank, w.submitAt(seed, rank, 0), step)
	}
}

// runLeave makes the seed-chosen member leave the quiescent group and
// runs until every survivor installs the view without it. It records
// the virtual latency and wire cost of the change and returns a
// non-empty note when the change did not complete or survivors
// disagree.
func runLeave(w *workload, seed int64, g *group, chk *checker, d *detCounts, sweep int64) string {
	leaver := w.leaver(seed)
	chk.resetViews()
	before := g.cluster.Net().Stats()
	// The leave comes at a seed-chosen instant within one sweep interval,
	// so its phase against the members' timers varies with the seed.
	delay := int64(mix(uint64(seed)^0x1ea7e) % uint64(sweep))
	t0 := g.cluster.Sim().Now() + delay
	g.cluster.Enqueue(leaver, delay, func() { g.members[leaver].Leave() })
	done := func() bool {
		for r := 0; r < w.members; r++ {
			if r != leaver && (chk.views[r] == nil || chk.views[r].N() != w.members-1) {
				return false
			}
		}
		return true
	}
	limit := t0 + maxTail
	for !done() && g.cluster.Sim().Now() < limit {
		g.cluster.Run(g.cluster.Sim().Now() + quiesceChunk)
	}
	after := g.cluster.Net().Stats()
	d.ViewPkts = after.Sent - before.Sent
	d.ViewBytes = after.BytesOnWire - before.BytesOnWire
	if !done() {
		return fmt.Sprintf("leave of rank %d: survivors did not install a %d-member view", leaver, w.members-1)
	}
	var last int64
	ref := chk.views[0]
	if leaver == 0 {
		ref = chk.views[1]
	}
	for r := 0; r < w.members; r++ {
		if r == leaver {
			continue
		}
		if chk.viewAt[r] > last {
			last = chk.viewAt[r]
		}
		if v := chk.views[r]; v.ID != ref.ID || !sameMembers(v.Members, ref.Members) {
			return fmt.Sprintf("leave of rank %d: rank %d installed %v, rank 0 %v", leaver, r, v.ID, ref.ID)
		}
	}
	if ref.RankOf(event.Addr(leaver+1)) >= 0 {
		return fmt.Sprintf("leave of rank %d: the new view still holds it", leaver)
	}
	if !chk.exited[leaver] {
		return fmt.Sprintf("leave of rank %d: the leaver never exited", leaver)
	}
	d.ViewChangeNs = last - t0
	return ""
}

func sameMembers(a, b []event.Addr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func poolNews() int64 {
	pc := event.ReadPoolCounters()
	return pc.EventNews + pc.HeaderNews
}
