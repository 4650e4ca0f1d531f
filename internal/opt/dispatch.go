package opt

// Multi-CCP dispatch: the engine compiles several specialized bypass
// paths per stack (data cast, pt2pt send, control acks, pt2pt
// retransmissions) and routes each event through a cheap discriminator
// in rank order, falling back to the interpreted stack — the run-time
// CCP switch of Fig. 4 generalized from one common case to a ranked
// family of them. The rank order is fixed at construction: the full
// cast bypass ahead of the partial path whose predicate it implies, and
// the control recognizers in derivation order.

// PathID identifies one dispatch destination: a compiled bypass path,
// or the interpreted full stack. The identifiers double as indices into
// the per-path hit/miss counters.
type PathID int

const (
	// PathDnCast is the fully specialized down-going cast (wire plus
	// inline self-delivery).
	PathDnCast PathID = iota
	// PathDnCastPartial is the cast whose wire side is specialized but
	// whose self-delivery runs through the shared stack.
	PathDnCastPartial
	// PathDnSend is the specialized point-to-point data send.
	PathDnSend
	// PathDnCtrlAck recognizes pt2pt acknowledgments at the stack's net
	// exit and emits them compressed.
	PathDnCtrlAck
	// PathDnCtrlRetrans recognizes pt2pt retransmissions at the stack's
	// net exit and emits them compressed.
	PathDnCtrlRetrans
	// PathUpCast and PathUpSend are the receive-side data bypasses.
	PathUpCast
	PathUpSend
	// PathUpAck consumes a compressed acknowledgment without touching
	// the layers above pt2pt.
	PathUpAck
	// PathUpRetrans applies a compressed gap-filling retransmission.
	PathUpRetrans
	// PathFullStack is the interpreted fallback (a routing "hit" on this
	// path is a miss of every specialized one).
	PathFullStack

	// NumPaths sizes the per-path counter arrays.
	NumPaths
)

var pathNames = [NumPaths]string{
	PathDnCast:        "dn_cast",
	PathDnCastPartial: "dn_cast_partial",
	PathDnSend:        "dn_send",
	PathDnCtrlAck:     "dn_ctrl_ack",
	PathDnCtrlRetrans: "dn_ctrl_retrans",
	PathUpCast:        "up_cast",
	PathUpSend:        "up_send",
	PathUpAck:         "up_ack",
	PathUpRetrans:     "up_retrans",
	PathFullStack:     "full_stack",
}

// String returns a stable metric-friendly name.
func (p PathID) String() string {
	if p < 0 || p >= NumPaths {
		return "unknown"
	}
	return pathNames[p]
}

// EngineOpt configures engine construction.
type EngineOpt func(*engineConfig)

type engineConfig struct {
	// noControl disables the control-path specialization (ack and
	// retransmission recognizers plus their receive bypasses) — the
	// single-CCP baseline the mixed-traffic benchmark compares against.
	noControl bool
}

// WithoutControlPaths builds the engine with only the data-path bypasses
// of the single-CCP configuration. Benchmarks use it as the baseline.
func WithoutControlPaths() EngineOpt {
	return func(c *engineConfig) { c.noControl = true }
}
