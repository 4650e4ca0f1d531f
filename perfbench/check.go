package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"ensemble/internal/event"
)

// checker verifies an episode's outputs as they are delivered: every
// destination gets every message exactly once, in FIFO order per origin
// (per origin and destination for sends), and on total-order workloads
// every member delivers the casts in one order. Its heap state is a few
// counters per (destination, origin) pair; the per-message arrays (the
// latencies and the reference cast order) live outside the Go heap, so
// the live heap the benchmark measures is the program's.
type checker struct {
	w *workload
	n int

	nextCast []int64 // [dest*n+origin] next expected cast sequence number
	nextSend []int64 // [dest*n+origin] next expected send sequence number

	delivered, expected int64
	doneAt              int64 // virtual time the last expected delivery happened
	lastSubmit          int64 // virtual time of the last submission

	vlat      []uint32 // remote submit -> delivery latencies, virtual ns
	orderHash []uint64 // per member running digest of its delivery order
	ref       []uint32 // total order: the cast order the first member to each position saw
	pos       []int    // total order: casts each member has delivered
	free      []func()

	stableAt []int64 // virtual time of each member's latest OnStable
	views    []*event.View
	viewAt   []int64
	exited   []bool

	failedIDs map[uint64]string
}

func newChecker(w *workload) *checker {
	n := w.members
	c := &checker{
		w: w, n: n,
		nextCast:  make([]int64, n*n),
		nextSend:  make([]int64, n*n),
		orderHash: make([]uint64, n),
		stableAt:  make([]int64, n),
		views:     make([]*event.View, n),
		viewAt:    make([]int64, n),
		exited:    make([]bool, n),
		failedIDs: map[uint64]string{},
	}
	var remote int
	for r := 0; r < n; r++ {
		c.expected += int64(w.castsBy(r)*n + w.sendsBy(r))
		remote += w.castsBy(r)*(n-1) + w.sendsBy(r)
		c.stableAt[r] = -1
	}
	var free func()
	c.vlat, free = newU32(remote)
	c.free = append(c.free, free)
	if w.totalOrder {
		var casts int
		for r := 0; r < n; r++ {
			casts += w.castsBy(r)
		}
		c.ref, free = newU32(casts)
		c.free = append(c.free, free)
		c.pos = make([]int, n)
	}
	return c
}

// release unmaps the off-heap arrays; the checker's quantiles are
// unusable afterwards.
func (c *checker) release() {
	for _, f := range c.free {
		f()
	}
	c.free, c.vlat, c.ref = nil, nil, nil
}

// deliver checks one application delivery at member rank.
func (c *checker) deliver(rank, origin int, payload []byte, now int64) {
	c.delivered++
	if c.delivered == c.expected {
		c.doneAt = now
	}
	if len(payload) < payloadHeader {
		c.fail(uint64(len(payload))|1<<63, fmt.Sprintf("member %d: short payload (%d bytes)", rank, len(payload)))
		return
	}
	stamp := int64(binary.LittleEndian.Uint64(payload))
	id := binary.LittleEndian.Uint64(payload[8:])
	kind, o, seq := splitID(id)
	if o != origin || o >= c.n {
		c.fail(id, fmt.Sprintf("member %d: message from %d delivered as from %d", rank, o, origin))
		return
	}
	c.orderHash[rank] = mix(c.orderHash[rank] ^ id)
	var next []int64
	switch kind {
	case kindCast:
		next = c.nextCast
		if c.pos != nil {
			// The first member to deliver its k-th cast fixes position k
			// of the order; every other member must agree with it.
			k := c.pos[rank]
			c.pos[rank]++
			cid := uint32(o)<<24 | uint32(seq)
			if k == len(c.ref) {
				c.ref = append(c.ref, cid)
			} else if c.ref[k] != cid {
				c.fail(id, fmt.Sprintf("member %d: total order differs at position %d", rank, k))
			}
		}
	case kindSend:
		next = c.nextSend
		if want := (o + 1) % c.n; rank != want {
			c.fail(id, fmt.Sprintf("member %d: send addressed to %d", rank, want))
			return
		}
	default:
		c.fail(id, fmt.Sprintf("member %d: unknown message kind %d", rank, kind))
		return
	}
	i := rank*c.n + o
	switch exp := next[i]; {
	case seq == exp:
		next[i]++
	case seq < exp:
		c.fail(id, fmt.Sprintf("member %d: duplicate or late delivery of %d/%d (expected %d)", rank, o, seq, exp))
	default:
		c.fail(id, fmt.Sprintf("member %d: FIFO gap from %d: got %d, expected %d", rank, o, seq, exp))
		next[i] = seq + 1
	}
	if o != rank {
		lat := now - stamp
		if lat > math.MaxUint32 {
			lat = math.MaxUint32
		}
		c.vlat = append(c.vlat, uint32(lat))
	}
}

// vlatQuantile returns the nearest-rank quantile q of the latencies, in
// virtual ns (sorting them in place).
func (c *checker) vlatQuantile(q float64) float64 {
	if len(c.vlat) == 0 {
		return 0
	}
	sort.Slice(c.vlat, func(i, j int) bool { return c.vlat[i] < c.vlat[j] })
	k := int(math.Ceil(q*float64(len(c.vlat)))) - 1
	if k < 0 {
		k = 0
	}
	return float64(c.vlat[k])
}

// complete reports whether every expected delivery has happened.
func (c *checker) complete() bool { return c.delivered >= c.expected }

func (c *checker) view(rank int, v *event.View, now int64) {
	c.views[rank] = v
	c.viewAt[rank] = now
}

func (c *checker) resetViews() {
	for r := range c.views {
		c.views[r] = nil
		c.viewAt[r] = 0
	}
}

func (c *checker) fail(id uint64, why string) {
	if _, seen := c.failedIDs[id]; !seen {
		c.failedIDs[id] = why
	}
}

// finish counts messages that were never delivered somewhere and
// returns the number of failed messages with up to five reasons.
func (c *checker) finish() (int64, []string) {
	for o := 0; o < c.n; o++ {
		casts, sends := int64(c.w.castsBy(o)), int64(c.w.sendsBy(o))
		for d := 0; d < c.n; d++ {
			for s := c.nextCast[d*c.n+o]; s < casts; s++ {
				c.fail(msgID(kindCast, o, s), fmt.Sprintf("member %d: cast %d/%d never delivered", d, o, s))
			}
		}
		d := (o + 1) % c.n
		for s := c.nextSend[d*c.n+o]; s < sends; s++ {
			c.fail(msgID(kindSend, o, s), fmt.Sprintf("member %d: send %d/%d never delivered", d, o, s))
		}
	}
	ids := make([]uint64, 0, len(c.failedIDs))
	for id := range c.failedIDs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var notes []string
	for i, id := range ids {
		if i == 5 {
			notes = append(notes, fmt.Sprintf("... and %d more", len(ids)-i))
			break
		}
		notes = append(notes, c.failedIDs[id])
	}
	return int64(len(ids)), notes
}

// digest combines every member's delivery-order digest.
func (c *checker) digest() uint64 {
	var h uint64
	for _, x := range c.orderHash {
		h = mix(h ^ x)
	}
	return h
}
