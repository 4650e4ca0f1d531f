// Package ensemble is a Go reproduction of the system described in
// "Building reliable, high-performance communication systems from
// components" (Liu, Kreitz, van Renesse, Hickey, Hayden, Birman,
// Constable — SOSP '99): the Ensemble group-communication architecture
// built from micro-protocol components, together with the formal
// optimization pipeline that partially evaluates layer stacks under
// common-case predicates, composes per-layer optimization theorems, and
// emits verified bypass code with compressed headers.
//
// The package is a facade: the substance lives in internal packages
// (layers, stack, opt, spec, check, core, netsim, bench) and is
// re-exported here as a stable public API.
//
//   - Group communication: NewGroup builds a simulated process group
//     running a configurable protocol stack (reliable multicast,
//     FIFO/total order, flow control, fragmentation, failure detection,
//     virtually synchronous membership) over the deterministic cluster
//     simulator. Inject application work with Group.Do (it runs on the
//     member's own goroutine at a virtual time) and advance the group
//     with Group.Run, or Group.RunConcurrent to run members in parallel
//     with the same delivery order.
//   - Configuration: SelectStack computes a stack from required
//     properties, mirroring Ensemble's heuristic (§3.2).
//   - Optimization: NewOptimizedEngine derives, composes, and compiles
//     the bypass for a stack (§4.1); Theorems exposes the stack
//     optimization theorems it rests on.
//   - Checking: the check package's entry points are re-exported for
//     verifying stack configurations and protocol compositions against
//     I/O-automaton specifications (§3).
package ensemble

import (
	"ensemble/internal/core"
	"ensemble/internal/event"
	"ensemble/internal/layer"
	"ensemble/internal/layers"
	"ensemble/internal/netsim"
	"ensemble/internal/opt"
	"ensemble/internal/stack"
)

// Mode selects the execution model of a protocol stack.
type Mode = stack.Mode

// The execution models of §4.2.
const (
	Imp  = stack.Imp
	Func = stack.Func
)

// Property names a guarantee an application can require of its stack.
type Property = core.Property

// The supported properties (§3.2's vocabulary, the subset our component
// library implements).
const (
	ReliableMcast    = core.PropReliableMcast
	ReliableSend     = core.PropReliableSend
	TotalOrder       = core.PropTotalOrder
	FlowControl      = core.PropFlowControl
	Fragmentation    = core.PropFragmentation
	Stability        = core.PropStability
	SelfDelivery     = core.PropSelfDelivery
	Membership       = core.PropMembership
	FailureDetection = core.PropFailureDetection
	Authenticity     = core.PropAuthenticity
)

// SelectStack computes a protocol stack (component names, top first)
// providing the requested properties.
func SelectStack(props ...Property) ([]string, error) { return core.SelectStack(props) }

// Predefined stacks.
var (
	// Stack10 is the paper's 10-layer stack (Table 2(b)).
	Stack10 = layers.Stack10
	// Stack4 is the paper's 4-layer stack (Fig. 4).
	Stack4 = layers.Stack4
	// StackFifo is a small FIFO stack with fragmentation.
	StackFifo = layers.StackFifo
	// StackVsync adds failure detection and membership.
	StackVsync = layers.StackVsync
)

// Components lists every registered micro-protocol component.
func Components() []string { return layer.Names() }

// View, Addr, and ViewID describe group membership epochs.
type (
	// View is one group membership epoch.
	View = event.View
	// Addr identifies an endpoint.
	Addr = event.Addr
	// ViewID identifies a view.
	ViewID = event.ViewID
)

// Handlers are a member's application upcalls.
type Handlers = core.Handlers

// Member is one group member bound to a simulated network.
type Member = core.Member

// Group bundles a simulated process group: its members, their cluster
// endpoints, and the cluster that schedules them.
type Group = core.ClusterGroup

// NetProfile parameterizes the simulated network.
type NetProfile = netsim.Profile

// Network profiles: the paper's link models and a faulty network.
var (
	// Ethernet100 models the paper's 100 Mbit Ethernet (~80 µs one-way).
	Ethernet100 = netsim.Ethernet100
	// VIA models the Giganet VIA interface (~10 µs one-way).
	VIA = netsim.VIA
	// LossyNet loses, reorders, and duplicates packets.
	LossyNet = netsim.Lossy
)

// NewGroup builds n members in a fresh view over a simulated network,
// all running the named stack (top first) under the given mode, with
// per-member handlers. Advance the group with Group.Run (virtual time,
// nanoseconds).
func NewGroup(n int, profile NetProfile, seed int64, names []string, mode Mode, handlers func(rank int) Handlers) (*Group, error) {
	return core.NewClusterGroup(n, profile, seed, names, mode, handlers)
}

// NewOptimizedGroup is NewGroup with every member running the
// machine-generated bypass around its stack: common-case traffic takes
// the compiled fast path with compressed headers, everything else the
// full stack, and the bypass is re-derived at every view change.
func NewOptimizedGroup(n int, profile NetProfile, seed int64, names []string, mode Mode, handlers func(rank int) Handlers) (*Group, error) {
	return core.NewOptimizedClusterGroup(n, profile, seed, names, mode, handlers)
}

// Engine is the machine-optimized configuration: a stack plus compiled
// bypasses, dispatched per event by the run-time CCP check (§4.1, MACH).
type Engine = opt.Engine

// StackTheorem is a composed stack optimization theorem.
type StackTheorem = opt.StackTheorem

// LayerConfig parameterizes layer instances.
type LayerConfig = layer.Config

// DefaultLayerConfig returns the paper-style parameters for a view.
func DefaultLayerConfig(v *View) LayerConfig { return layer.DefaultConfig(v) }

// NewOptimizedEngine derives, composes, and compiles every bypass the
// optimizer can produce for the named stack, sharing state with a
// fallback stack in the given mode.
func NewOptimizedEngine(names []string, cfg LayerConfig, mode Mode) (*Engine, error) {
	return opt.NewEngine(names, cfg, mode)
}

// NewView builds a view; member i's address is addrs[i].
func NewView(group string, seq int64, addrs []Addr, rank int) *View {
	return event.NewView(group, seq, addrs, rank)
}
