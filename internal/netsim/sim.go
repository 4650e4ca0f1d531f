// Package netsim provides the network substrates under the protocol
// stacks: a deterministic discrete-event cluster simulator with
// configurable latency, loss, reordering, and duplication (the abstract
// LossyNetwork of Fig. 2(b) made executable), latency models for the
// links the paper reports against (100 Mbit Ethernet, VIA), and a real
// UDP transport for running examples between processes.
package netsim

import "container/heap"

// Sim is a Cluster's global clock: virtual time in nanoseconds, plus a
// queue of instrumentation events (Cluster.AtVirtual) that the scheduler
// runs at round cuts. Ties are broken by insertion order, so runs are
// reproducible.
type Sim struct {
	now int64
	seq int64
	pq  simPQ
}

type simEvent struct {
	t   int64
	seq int64
	fn  func()
}

type simPQ []simEvent

func (q simPQ) Len() int { return len(q) }
func (q simPQ) Less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}
func (q simPQ) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *simPQ) Push(x any)   { *q = append(*q, x.(simEvent)) }
func (q *simPQ) Pop() any     { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

// Now returns the current virtual time in nanoseconds.
func (s *Sim) Now() int64 { return s.now }

// At schedules fn at virtual time t (clamped to now for past times).
func (s *Sim) At(t int64, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.pq, simEvent{t: t, seq: s.seq, fn: fn})
}
