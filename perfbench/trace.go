package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"ensemble/internal/event"
	"ensemble/internal/netsim"
)

// Spans are recorded by the benchmark around its calls into the
// program, never inside it: the wrapped member entry points (the packet
// receive callback, timer callbacks, the drain flush), the network
// calls a member makes, and the application's submit and deliver calls.
type spanName uint8

const (
	spanCast    spanName = iota // core: Member.Cast / Member.Send from the application
	spanRecv                    // core: the member's packet receive callback
	spanTick                    // core: a member timer callback
	spanFlush                   // transport: the drain-end batcher flush
	spanSend                    // netsim: Endpoint.Send / Endpoint.Cast
	spanDeliver                 // application: the OnCast / OnSend upcall
	numSpanNames
)

var spanNames = [numSpanNames]string{"core.cast", "core.recv", "core.tick", "transport.flush", "netsim.send", "app.deliver"}

// span is one recorded interval; start and end are wall nanoseconds
// since the tracer's epoch, parent indexes the enclosing span (-1 at top
// level), and msg is the id of the message the span worked on, taken
// from its payload (0 when the span touched no application payload).
type span struct {
	start, end int64
	msg        uint64
	parent     int32
	name       spanName
	rank       uint16
}

type openSpan struct {
	idx   int32 // index in spans, or -1 once storage is full
	start int64
	name  spanName
}

// maxSpans caps the spans kept for the trace file; distributions and
// busy times are aggregated over every span regardless.
const maxSpans = 1 << 17

// tracer keeps spans in memory and aggregates them per name. The
// members of a sequential cluster run on one goroutine, so it needs no
// locking. All methods are nil-safe: a nil tracer is the untraced run.
type tracer struct {
	epoch  time.Time
	active bool

	spans []span
	open  []openSpan

	dur     [numSpanNames]hist
	count   [numSpanNames]int64
	busyNs  int64 // top-level member spans (everything but netsim scheduling)
	wallNs  int64 // traced traffic-phase wall time
	holdNs  hist  // adaptive flush hold times (the batcher's hold observer)
	phaseT0 time.Time

	prof    bytes.Buffer
	cpu     cpuShares
	profErr error
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<12), cpu: cpuShares{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// beginAt opens a span on member rank (-1: the enclosing span's member).
func (t *tracer) beginAt(name spanName, msg uint64, rank int) {
	if t == nil || !t.active {
		return
	}
	o := openSpan{idx: -1, start: t.now(), name: name}
	if len(t.spans) < maxSpans {
		parent := int32(-1)
		if n := len(t.open); n > 0 {
			parent = t.open[n-1].idx
			if rank < 0 {
				rank = int(t.spans[parent].rank)
			}
		}
		if rank < 0 {
			rank = 0
		}
		o.idx = int32(len(t.spans))
		t.spans = append(t.spans, span{start: o.start, msg: msg, parent: parent, name: name, rank: uint16(rank)})
	}
	t.open = append(t.open, o)
}

func (t *tracer) end() {
	if t == nil || !t.active || len(t.open) == 0 {
		return
	}
	n := len(t.open) - 1
	o := t.open[n]
	t.open = t.open[:n]
	end := t.now()
	d := end - o.start
	t.dur[o.name].add(d)
	t.count[o.name]++
	if n == 0 {
		t.busyNs += d
	}
	if o.idx >= 0 {
		t.spans[o.idx].end = end
	}
}

// deliver opens the span of an application delivery (closed by end)
// under the current receive (or cast, for self-delivery), carrying the
// message's id, which the enclosing span adopts when it has none yet.
func (t *tracer) deliver(payload []byte) {
	if t == nil || !t.active {
		return
	}
	var id uint64
	if len(payload) >= payloadHeader {
		id = binary.LittleEndian.Uint64(payload[8:])
	}
	if n := len(t.open); n > 0 && t.open[n-1].idx >= 0 && t.spans[t.open[n-1].idx].msg == 0 {
		t.spans[t.open[n-1].idx].msg = id
	}
	t.beginAt(spanDeliver, id, -1)
}

func (t *tracer) hold(ns int64) {
	if t.active {
		t.holdNs.add(ns)
	}
}

// startTraffic opens the traced traffic phase and its CPU profile.
func (t *tracer) startTraffic() {
	if t == nil {
		return
	}
	t.prof.Reset()
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		t.profErr = err
	}
	t.active = true
	t.phaseT0 = time.Now()
}

// stopTraffic closes the traffic phase and folds its CPU profile into
// the per-layer shares.
func (t *tracer) stopTraffic() {
	if t == nil {
		return
	}
	t.wallNs += int64(time.Since(t.phaseT0))
	t.active = false
	pprof.StopCPUProfile()
	if t.profErr == nil {
		t.profErr = t.cpu.addProfile(t.prof.Bytes())
	}
}

// writeSpans writes the kept spans, one JSON object a line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range t.spans {
		fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"name\":%q,\"member\":%d,\"msg\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
			i, s.parent, spanNames[s.name], s.rank, s.msg, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedEndpoint is the member's view of its cluster endpoint in a
// traced run: every call is forwarded, with a span around it. It
// forwards SetDrainFlush/InDrain too, or the member would flush at
// every entry instead of at the drain barrier and batch differently.
type tracedEndpoint struct {
	ep   *netsim.Endpoint
	tr   *tracer
	rank int
}

func (t *tracer) wrap(ep *netsim.Endpoint, rank int) *tracedEndpoint {
	return &tracedEndpoint{ep: ep, tr: t, rank: rank}
}

func (te *tracedEndpoint) Attach(addr event.Addr, recv func(netsim.Packet)) {
	te.ep.Attach(addr, func(p netsim.Packet) {
		te.tr.beginAt(spanRecv, 0, te.rank)
		recv(p)
		te.tr.end()
	})
}

func (te *tracedEndpoint) Detach(addr event.Addr) { te.ep.Detach(addr) }

func (te *tracedEndpoint) Send(from, to event.Addr, data []byte) {
	te.tr.beginAt(spanSend, 0, te.rank)
	te.ep.Send(from, to, data)
	te.tr.end()
}

func (te *tracedEndpoint) Cast(from event.Addr, data []byte) {
	te.tr.beginAt(spanSend, 0, te.rank)
	te.ep.Cast(from, data)
	te.tr.end()
}

func (te *tracedEndpoint) Now() int64 { return te.ep.Now() }

func (te *tracedEndpoint) After(delay int64, fn func()) {
	te.ep.After(delay, func() {
		te.tr.beginAt(spanTick, 0, te.rank)
		fn()
		te.tr.end()
	})
}

func (te *tracedEndpoint) SetDrainFlush(fn func()) {
	te.ep.SetDrainFlush(func() {
		te.tr.beginAt(spanFlush, 0, te.rank)
		fn()
		te.tr.end()
	})
}

func (te *tracedEndpoint) InDrain() bool { return te.ep.InDrain() }
