package transport

// Delta compression of sub-packet headers (§4.1.3 taken one step
// further) — the sub grammar every delta frame carries. Header
// compression already folds each packet's constant fields into a small
// stack identifier, so a common-case wire image is
//
//	[epoch prefix uvarints] 0xC0 id(2) sender(uvarint) seqno(varint) rest
//
// Consecutive sub-packets on one chain go to the same destination in the
// same epoch from the same sender with near-sequential seqnos — the
// header bytes repeat almost verbatim. A delta frame (magic XFrameMagic,
// header in xframe.go) therefore encodes each sub against its
// predecessor: equal epoch/stack-id/sender are elided entirely and the
// seqno becomes a (usually one-byte) varint delta. Within a frame the
// predecessor is the previous sub; for the frame's first sub it is the
// previous frame's last sub when the chain carries one across the
// boundary, and nothing (the sub rides full) in an anchor frame.
//
// Delta sub grammar (what follows the 0xB9 frame header):
//
//	subs      repeated {
//	    flag  byte
//	    flag == 0x00 (full):   uvarint length, length bytes (a complete
//	                           wire image, like a classic-frame sub)
//	    flag & 0x01  (delta):  optional fields selected by the flag bits
//	                           (0x02 epoch: prefix uvarints; 0x04 stack
//	                           id: 2 bytes; 0x08 sender: uvarint), then
//	                           varint seqno delta; if 0x20 is set, a
//	                           uvarint shared-suffix length s; uvarint
//	                           rest length, rest bytes — the remaining
//	                           varying fields and payload, verbatim,
//	                           followed (when 0x20) by the previous
//	                           sub's last s bytes
//	    flag == 0x10 (prefix): uvarint shared-prefix length n, uvarint
//	                           rest length, rest bytes — the sub is the
//	                           previous sub's first n bytes followed by
//	                           rest, verbatim
//	    flag == 0x30 (prefix+suffix): uvarint n, uvarint s, uvarint mid
//	                           length, mid bytes — the sub is the
//	                           previous sub's first n bytes, mid, then
//	                           the previous sub's last s bytes
//	}
//
// The 0x10 prefix form is the shape-agnostic fallback for wires the
// field-level delta cannot parse (full-format images, control traffic):
// consecutive acknowledgements or gossip wires of the same kind repeat
// most of their header bytes even though the coder has no model of their
// fields, so eliding the shared byte prefix against the previous sub
// still recovers most of the redundancy.
//
// The 0x20 suffix bit (both forms) recovers the redundancy *after* the
// varying bytes: consecutive wires typically differ in one or two
// mid-header varints and a few low payload bytes while their tails —
// trailing header fields, the high bytes of little-endian stamps —
// repeat verbatim, so the encoder elides the longest shared byte suffix
// against the previous sub the same way the prefix forms elide the
// front.
//
// Any sub can fall back to full encoding — a wire that is not a
// compressed image (CCP miss, control traffic) and shares no useful
// prefix with its predecessor, a seqno delta that would overflow, or
// simply the first sub of an anchor frame — so the format degrades to
// the classic one per sub, never per frame. The decoder keeps the
// malformed-input discipline of walkFrame: a truncated delta, a delta
// with no base (delta-first in a frame with nothing seeded), unknown
// flag bits, a shared prefix longer than the previous sub, or an
// overflowing seqno delta surfaces the remaining bytes as one final
// garbage sub-packet, which downstream decoders count as a stray
// packet; nothing panics and nothing is dropped silently.

import "encoding/binary"

// EpochPrefixUvarints is the number of uvarints core.Member prefixes to
// every data wire (the view sequence number and the membership digest).
// Substrates that unpack member traffic build their FrameWalker with it
// so the delta coder can treat the prefix as one elidable epoch field.
const EpochPrefixUvarints = 2

// maxPrefix bounds the epoch prefix a delta coder can track.
const maxPrefix = 2

// Delta sub-packet flag bits (see the file comment for the grammar).
const (
	subFull     = 0x00 // complete wire image follows
	subIsDelta  = 0x01 // delta-encoded against the previous sub
	deltaEpoch  = 0x02 // epoch prefix differs: explicit uvarints follow
	deltaStack  = 0x04 // stack id differs: explicit 2 bytes follow
	deltaSender = 0x08 // sender differs: explicit uvarint follows
	subPrefix   = 0x10 // shared byte prefix of the previous sub, then rest
	deltaSuffix = 0x20 // shared byte suffix of the previous sub elided
	deltaKnown  = subIsDelta | deltaEpoch | deltaStack | deltaSender | deltaSuffix
	// subPrefixSuffix is the prefix form with a shared suffix too: the sub
	// is prev[:n] + mid + prev[len(prev)-s:].
	subPrefixSuffix = subPrefix | deltaSuffix
)

// minPrefixLen is the shortest shared prefix worth eliding: below four
// bytes the flag byte and the two uvarint lengths eat the saving.
const minPrefixLen = 4

// minSuffixLen is the shortest shared suffix worth eliding: the elision
// costs one extra uvarint, so a one-byte suffix is a wash.
const minSuffixLen = 2

// commonPrefixLen is the length of the longest shared byte prefix.
func commonPrefixLen(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// commonSuffixLen is the length of the longest shared byte suffix.
func commonSuffixLen(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[len(a)-1-i] == b[len(b)-1-i] {
		i++
	}
	return i
}

// subMeta is a parsed compressed-wire header, kept by value so the delta
// coder can re-encode a sub canonically (or compute the next delta base)
// without holding on to the previous sub's bytes.
type subMeta struct {
	ok      bool
	prefix  [maxPrefix]uint64
	id      uint16
	sender  uint64
	seq     int64
	restOff int // offset of the bytes after the first varying varint
}

// uvarintLen is the length of v's canonical uvarint encoding.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// parseSub parses wire as an epoch-prefixed compressed image. A wire
// that does not have that shape (full-format images, control traffic,
// arbitrary test bytes) reports !ok and is carried as a prefix or full
// sub; the coder never needs to understand it. The "seqno" is simply
// the first varying varint after the sender — the delta transform is
// shape-based and symmetric, so round-tripping is exact whatever the
// field means. Non-minimal varint encodings also report !ok: the
// decoder reconstructs elided fields canonically, so a wire that spells
// a value the long way would not come back byte-exact through the
// field delta (the canonical encoders never emit one, but arbitrary
// bytes can).
func parseSub(wire []byte, nPrefix int) (m subMeta) {
	off := 0
	for i := 0; i < nPrefix; i++ {
		v, k := binary.Uvarint(wire[off:])
		if k <= 0 || k != uvarintLen(v) {
			return
		}
		m.prefix[i] = v
		off += k
	}
	if len(wire) < off+3 || wire[off] != WireCompressed {
		return
	}
	m.id = uint16(wire[off+1]) | uint16(wire[off+2])<<8
	off += 3
	s, k := binary.Uvarint(wire[off:])
	if k <= 0 || k != uvarintLen(s) {
		return
	}
	m.sender = s
	off += k
	q, k := binary.Varint(wire[off:])
	if k <= 0 {
		return
	}
	zz := uint64(q) << 1
	if q < 0 {
		zz = ^zz
	}
	if k != uvarintLen(zz) {
		return
	}
	m.seq = q
	off += k
	m.restOff = off
	m.ok = true
	return
}

// appendDeltaSub encodes wire (parsed as cur) against base into buf;
// prev is the previous sub's full bytes, the base for shared-suffix
// elision of the rest. It reports false — leaving buf untouched — when
// the seqno delta would overflow; the caller then falls back to a full
// sub.
func appendDeltaSub(buf []byte, wire []byte, cur, base subMeta, nPrefix int, prev []byte) ([]byte, bool) {
	d := cur.seq - base.seq
	if (cur.seq >= base.seq) != (d >= 0) {
		return buf, false
	}
	rest := wire[cur.restOff:]
	s := commonSuffixLen(rest, prev)
	if s < minSuffixLen {
		s = 0
	}
	flag := byte(subIsDelta)
	if cur.prefix != base.prefix {
		flag |= deltaEpoch
	}
	if cur.id != base.id {
		flag |= deltaStack
	}
	if cur.sender != base.sender {
		flag |= deltaSender
	}
	if s > 0 {
		flag |= deltaSuffix
	}
	buf = append(buf, flag)
	if flag&deltaEpoch != 0 {
		for i := 0; i < nPrefix; i++ {
			buf = binary.AppendUvarint(buf, cur.prefix[i])
		}
	}
	if flag&deltaStack != 0 {
		buf = append(buf, byte(cur.id), byte(cur.id>>8))
	}
	if flag&deltaSender != 0 {
		buf = binary.AppendUvarint(buf, cur.sender)
	}
	buf = binary.AppendVarint(buf, d)
	if s > 0 {
		buf = binary.AppendUvarint(buf, uint64(s))
	}
	mid := rest[:len(rest)-s]
	buf = binary.AppendUvarint(buf, uint64(len(mid)))
	return append(buf, mid...), true
}

// FrameWalker unpacks batched frames — classic and delta — into their
// sub-packets. It is single-goroutine, like the substrate that owns it,
// and keeps, per receive link, the mirror of the sender's delta chain
// (see WalkLink in xframe.go) plus a reconstruction buffer.
//
// prefixUvarints must match what the senders' Batchers were configured
// with (EpochPrefixUvarints for core.Member traffic, 0 for bare wires).
//
// stableSubs selects the lifetime of reconstructed delta subs. With
// stableSubs, every reconstruction goes into fresh storage, so surfaced
// subs stay valid as long as the frame buffer itself — what the netsim
// substrates need, because decoded payloads may be retained by the
// application (the frame buffer is a per-transmit copy there, so classic
// subs already had that lifetime). Without it the walker reuses one
// scratch buffer and a reconstructed sub is only valid until the next
// WalkLink call — the zero-allocation choice for harnesses whose
// consumers copy whatever they keep (the bench pumps already recycle
// delivered buffers under that contract). Either way the link mirrors
// copy the trailing sub into storage of their own.
type FrameWalker struct {
	nPrefix int
	stable  bool
	// base is the running field-delta base of the walk in progress.
	base    subMeta
	scratch []byte
	// links holds the per-(from, to, cast) cross-frame mirrors.
	links map[linkKey]*linkMirror
}

// NewFrameWalker builds a walker; see the type comment for the knobs.
func NewFrameWalker(prefixUvarints int, stableSubs bool) *FrameWalker {
	if prefixUvarints < 0 || prefixUvarints > maxPrefix {
		panic("transport: prefixUvarints out of range")
	}
	return &FrameWalker{nPrefix: prefixUvarints, stable: stableSubs}
}

// walkSubs decodes the delta sub grammar from data[off:]. The caller
// pre-seeds w.base and prev (zero/nil for a self-contained frame, the
// link mirror for cross-frame continuity). It returns the subs surfaced
// (a trailing garbage sub included), the last surfaced sub's bytes (the
// seeded prev if none), and whether the decode ran clean — !clean means
// the tail from the offending sub's flag byte on went to fn as garbage.
func (w *FrameWalker) walkSubs(data []byte, off int, prev []byte, fn func(sub []byte)) (int, []byte, bool) {
	// prev is the previous surfaced sub's bytes — the base for subPrefix
	// reconstruction. It may point into data (full subs), into out
	// (reconstructed subs), or into mirror-owned storage (the seed); out
	// is never truncated mid-walk, and growth leaves earlier backing
	// arrays readable, so prev stays valid.
	var out []byte
	if !w.stable {
		out = w.scratch[:0]
	}
	subs := 0
	for off < len(data) {
		subStart := off
		garbage := func() (int, []byte, bool) {
			fn(data[subStart:])
			if !w.stable {
				w.scratch = out[:0]
			}
			return subs + 1, prev, false
		}
		flag := data[off]
		off++
		if flag == subFull {
			n, k := binary.Uvarint(data[off:])
			if k <= 0 {
				return garbage()
			}
			off += k
			end := off + int(n)
			if end < off || end > len(data) {
				return garbage()
			}
			sub := data[off:end:end]
			w.base = parseSub(sub, w.nPrefix)
			prev = sub
			fn(sub)
			subs++
			off = end
			continue
		}
		if flag == subPrefix || flag == subPrefixSuffix {
			// Shared-prefix sub: the previous sub's first n bytes plus an
			// explicit rest — and, in the prefix+suffix form, the previous
			// sub's last s bytes after it. No base (first in frame with
			// nothing seeded) or an elided run longer than the previous
			// sub is undecodable.
			n, k := binary.Uvarint(data[off:])
			if k <= 0 || prev == nil || n > uint64(len(prev)) {
				return garbage()
			}
			off += k
			var sfx uint64
			if flag == subPrefixSuffix {
				sfx, k = binary.Uvarint(data[off:])
				if k <= 0 || sfx > uint64(len(prev)) {
					return garbage()
				}
				off += k
			}
			m, k := binary.Uvarint(data[off:])
			if k <= 0 {
				return garbage()
			}
			off += k
			end := off + int(m)
			if end < off || end > len(data) {
				return garbage()
			}
			start := len(out)
			out = append(out, prev[:n]...)
			out = append(out, data[off:end]...)
			if sfx > 0 {
				out = append(out, prev[uint64(len(prev))-sfx:]...)
			}
			sub := out[start:len(out):len(out)]
			w.base = parseSub(sub, w.nPrefix)
			prev = sub
			fn(sub)
			subs++
			off = end
			continue
		}
		if flag&subIsDelta == 0 || flag&^byte(deltaKnown) != 0 || !w.base.ok {
			// Unknown flag bits, or a delta sub with nothing to be a
			// delta of (first in frame with no seeded base, or after an
			// unparseable full sub): the tail is undecodable from here on.
			return garbage()
		}
		cur := w.base
		if flag&deltaEpoch != 0 {
			for i := 0; i < w.nPrefix; i++ {
				v, k := binary.Uvarint(data[off:])
				if k <= 0 {
					return garbage()
				}
				cur.prefix[i] = v
				off += k
			}
		}
		if flag&deltaStack != 0 {
			if off+2 > len(data) {
				return garbage()
			}
			cur.id = uint16(data[off]) | uint16(data[off+1])<<8
			off += 2
		}
		if flag&deltaSender != 0 {
			v, k := binary.Uvarint(data[off:])
			if k <= 0 {
				return garbage()
			}
			cur.sender = v
			off += k
		}
		d, k := binary.Varint(data[off:])
		if k <= 0 {
			return garbage()
		}
		off += k
		seq := w.base.seq + d
		if (seq >= w.base.seq) != (d >= 0) {
			return garbage()
		}
		cur.seq = seq
		var sfx uint64
		if flag&deltaSuffix != 0 {
			// Shared-suffix elision: the rest's last sfx bytes are the
			// previous sub's tail. No previous sub, or a suffix longer
			// than it, is undecodable.
			sfx, k = binary.Uvarint(data[off:])
			if k <= 0 || prev == nil || sfx > uint64(len(prev)) {
				return garbage()
			}
			off += k
		}
		n, k := binary.Uvarint(data[off:])
		if k <= 0 {
			return garbage()
		}
		off += k
		end := off + int(n)
		if end < off || end > len(data) {
			return garbage()
		}
		// Reconstruct the canonical wire image. Each sub appends to the
		// tail of one per-walk buffer (growth copies the array but earlier
		// subs keep the old backing, so they — and prev — stay valid); in
		// scratch mode that buffer is reused across walks.
		start := len(out)
		for i := 0; i < w.nPrefix; i++ {
			out = binary.AppendUvarint(out, cur.prefix[i])
		}
		out = append(out, WireCompressed, byte(cur.id), byte(cur.id>>8))
		out = binary.AppendUvarint(out, cur.sender)
		out = binary.AppendVarint(out, cur.seq)
		cur.restOff = len(out) - start
		out = append(out, data[off:end]...)
		if sfx > 0 {
			out = append(out, prev[uint64(len(prev))-sfx:]...)
		}
		w.base = cur
		sub := out[start:len(out):len(out)]
		prev = sub
		fn(sub)
		subs++
		off = end
	}
	if !w.stable {
		w.scratch = out[:0]
	}
	return subs, prev, true
}
