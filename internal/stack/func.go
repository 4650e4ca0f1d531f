package stack

import (
	"slices"

	"ensemble/internal/event"
	"ensemble/internal/layer"
)

// funcStack is the functional execution model (paper §4.2, version 2):
// no centralized event scheduler. When two protocols are stacked, p on
// top of q, the result is a new protocol: down events are applied to p;
// the down events that come out of p are applied to q, and the up events
// that come out of q are applied back to p, recursively. The up events
// out of p and the down events out of q merge to form the output. The
// state of the composition is the combined states, and an entire stack is
// composed one layer at a time this way.

// proto is a protocol in the functional model: applying an event yields
// the lists of up- and down-going output events.
type proto interface {
	Up(ev *event.Event) (ups, dns []*event.Event)
	Dn(ev *event.Event) (ups, dns []*event.Event)
}

// funcLayer adapts one layer state to the functional interface.
type funcLayer struct {
	st layer.State
	fs *funcStack
}

// collector gathers handler emissions. Collectors live in the stack's
// arena and are recycled wholesale when the outermost application of the
// composition returns (an epoch reset), so a boundary crossing costs no
// allocation in the steady state — the remaining FUNC overhead is the
// recursive merge work itself, which is intrinsic to the model and the
// reason FUNC trails IMP in Table 1.
type collector struct {
	ups, dns []*event.Event
	// upsBuf and dnsBuf back ups and dns until a handler emits more than
	// four events in one direction, so a collector is one allocation.
	upsBuf, dnsBuf [4]*event.Event
}

func (c *collector) PassUp(ev *event.Event) { c.ups = append(c.ups, ev) }
func (c *collector) PassDn(ev *event.Event) { c.dns = append(c.dns, ev) }

func (l funcLayer) Up(ev *event.Event) ([]*event.Event, []*event.Event) {
	c := l.fs.getCollector()
	l.st.HandleUp(ev, c)
	return c.ups, c.dns
}

func (l funcLayer) Dn(ev *event.Event) ([]*event.Event, []*event.Event) {
	c := l.fs.getCollector()
	l.st.HandleDn(ev, c)
	return c.ups, c.dns
}

// comp is the composition of p stacked on top of q.
type comp struct {
	p, q proto
}

// mergeEvs accumulates child output into a merge list. When the list is
// still empty it aliases the child's slice instead of copying — on the
// common linear path (one output per boundary) every merge is an alias
// and the composition allocates nothing.
func mergeEvs(dst, src []*event.Event) []*event.Event {
	if dst == nil {
		return src
	}
	return append(dst, src...)
}

func (c comp) Dn(ev *event.Event) (ups, dns []*event.Event) {
	pu, pd := c.p.Dn(ev)
	ups = pu
	for _, d := range pd {
		du, dd := c.dnIntoLower(d)
		ups = mergeEvs(ups, du)
		dns = mergeEvs(dns, dd)
	}
	return ups, dns
}

func (c comp) Up(ev *event.Event) (ups, dns []*event.Event) {
	qu, qd := c.q.Up(ev)
	dns = qd
	for _, u := range qu {
		uu, ud := c.upIntoUpper(u)
		ups = mergeEvs(ups, uu)
		dns = mergeEvs(dns, ud)
	}
	return ups, dns
}

// dnIntoLower applies a down event to q and recursively feeds q's up
// events back into p.
func (c comp) dnIntoLower(d *event.Event) (ups, dns []*event.Event) {
	qu, qd := c.q.Dn(d)
	dns = qd
	for _, u := range qu {
		uu, ud := c.upIntoUpper(u)
		ups = mergeEvs(ups, uu)
		dns = mergeEvs(dns, ud)
	}
	return ups, dns
}

// upIntoUpper applies an up event to p and recursively feeds p's down
// events back into q.
func (c comp) upIntoUpper(u *event.Event) (ups, dns []*event.Event) {
	pu, pd := c.p.Up(u)
	ups = pu
	for _, d := range pd {
		du, dd := c.dnIntoLower(d)
		ups = mergeEvs(ups, du)
		dns = mergeEvs(dns, dd)
	}
	return ups, dns
}

type funcStack struct {
	states []layer.State
	top    proto
	cb     Callbacks

	// arena recycles collectors: handed out in order during an
	// application of the composition, reclaimed all at once when the
	// outermost application returns. depth tracks re-entrant
	// applications (a callback submitting a response) so the reset only
	// happens when no collector slice can still be referenced.
	arena []*collector
	used  int
	depth int
}

func newFuncStack(states []layer.State, cb Callbacks) *funcStack {
	s := &funcStack{states: states, cb: cb}
	// One collector per layer: what a linear traversal uses. The arena
	// doubles from there when a traversal fans out.
	s.grow(len(states))
	// Fold the layers top-first: ((L0 over L1) over L2) ...
	var p proto = funcLayer{st: states[0], fs: s}
	for _, st := range states[1:] {
		p = comp{p: p, q: funcLayer{st: st, fs: s}}
	}
	s.top = p
	return s
}

// grow adds n collectors to the arena in one allocation.
func (s *funcStack) grow(n int) {
	chunk := make([]collector, n)
	s.arena = slices.Grow(s.arena, n)
	for i := range chunk {
		c := &chunk[i]
		c.ups, c.dns = c.upsBuf[:0], c.dnsBuf[:0]
		s.arena = append(s.arena, c)
	}
}

func (s *funcStack) getCollector() *collector {
	if s.used == len(s.arena) {
		s.grow(len(s.arena))
	}
	c := s.arena[s.used]
	s.used++
	// Clear up to capacity: parent merges may have written event
	// pointers past the recorded length.
	c.ups = c.ups[:cap(c.ups)]
	for i := range c.ups {
		c.ups[i] = nil
	}
	c.ups = c.ups[:0]
	c.dns = c.dns[:cap(c.dns)]
	for i := range c.dns {
		c.dns[i] = nil
	}
	c.dns = c.dns[:0]
	return c
}

func (s *funcStack) States() []layer.State { return s.states }

func (s *funcStack) SubmitDn(ev *event.Event) {
	s.depth++
	ups, dns := s.top.Dn(ev)
	s.route(ups, dns)
	if s.depth--; s.depth == 0 {
		s.used = 0
	}
}

func (s *funcStack) DeliverUp(ev *event.Event) {
	s.depth++
	ups, dns := s.top.Up(ev)
	s.route(ups, dns)
	if s.depth--; s.depth == 0 {
		s.used = 0
	}
}

func (s *funcStack) route(ups, dns []*event.Event) {
	for _, u := range ups {
		s.cb.app(u)
	}
	for _, d := range dns {
		s.cb.net(d)
	}
}
