package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// cwire builds an epoch-prefixed compressed wire image, the shape the
// delta coder recognizes (see parseSub).
func cwire(prefix []uint64, id uint16, sender uint64, seq int64, rest ...byte) []byte {
	var w []byte
	for _, p := range prefix {
		w = binary.AppendUvarint(w, p)
	}
	w = append(w, WireCompressed, byte(id), byte(id>>8))
	w = binary.AppendUvarint(w, sender)
	w = binary.AppendVarint(w, seq)
	return append(w, rest...)
}

// collectWalk runs a FrameWalker over the link 0 -> 1 and returns
// copies of the surfaced subs (copying during fn is the inline-
// consumption contract, so this is correct in both lifetime modes).
func collectWalk(t *testing.T, w *FrameWalker, data []byte) [][]byte {
	t.Helper()
	subs, _ := collectWalkResult(t, w, data)
	return subs
}

// collectWalkResult is collectWalk that also returns the WalkResult.
func collectWalkResult(t *testing.T, w *FrameWalker, data []byte) ([][]byte, WalkResult) {
	t.Helper()
	var subs [][]byte
	res := w.WalkLink(0, 1, data, func(sub []byte) {
		subs = append(subs, append([]byte(nil), sub...))
	})
	if res.Subs != len(subs) {
		t.Fatalf("WalkLink counted %d subs, surfaced %d", res.Subs, len(subs))
	}
	return subs, res
}

// xhdr is a hand-built delta frame header on the cast chain.
func xhdr(gen, seq uint64) []byte {
	h := []byte{XFrameMagic, xflagCast}
	h = binary.AppendUvarint(h, gen)
	return binary.AppendUvarint(h, seq)
}

// deltaFrameOf runs wires through a delta Batcher and returns the one
// frame it produces (all wires must fit one cast frame). It is the
// chain's first frame, so an anchor: its first sub rides full.
func deltaFrameOf(t *testing.T, nPrefix int, wires ...[]byte) []byte {
	t.Helper()
	sink := &frameSink{}
	b := NewBatcher(sink, 0, 0)
	b.EnableCrossFrame(nPrefix)
	for _, w := range wires {
		b.Cast(w)
	}
	b.Flush()
	if len(sink.calls) != 1 {
		t.Fatalf("wires spread over %d frames, want 1", len(sink.calls))
	}
	return sink.calls[0].data
}

func TestDeltaRoundTripMixedWires(t *testing.T) {
	prefix := []uint64{7, 0xDEADBEEF}
	wires := [][]byte{
		cwire(prefix, 12, 3, 100, 0xAA, 0xBB),      // full (first in frame)
		cwire(prefix, 12, 3, 101, 0xCC),            // delta: everything elided
		cwire(prefix, 12, 3, 101),                  // delta: zero seq delta, empty rest
		cwire(prefix, 12, 5, 99, 0x01),             // delta: explicit sender
		cwire(prefix, 13, 5, 100),                  // delta: explicit stack id
		cwire([]uint64{8, 0xDEADBEEF}, 13, 5, 101), // delta: explicit epoch
		{0x01, 0x02, 0x03},                         // opaque (full-format image): full sub
		cwire(prefix, 12, 3, 200, 0xEE),            // full again (opaque predecessor)
		cwire(prefix, 12, 3, math.MinInt64, 0xFF),  // delta with a huge negative jump
		{}, // empty wire: full sub
	}
	frame := deltaFrameOf(t, 2, wires...)
	if !IsXFrame(frame) || !IsFrame(frame) {
		t.Fatalf("frame magic = %#x, want XFrameMagic", frame[0])
	}
	for _, mode := range []bool{true, false} {
		got := collectWalk(t, NewFrameWalker(2, mode), frame)
		if len(got) != len(wires) {
			t.Fatalf("stable=%t: got %d subs, want %d", mode, len(got), len(wires))
		}
		for i := range wires {
			if !bytes.Equal(got[i], wires[i]) {
				t.Fatalf("stable=%t: sub %d = %x, want %x", mode, i, got[i], wires[i])
			}
		}
	}
}

func TestDeltaSavesBytes(t *testing.T) {
	prefix := []uint64{3, 0x123456789A}
	var wires [][]byte
	for i := 0; i < 10; i++ {
		wires = append(wires, cwire(prefix, 42, 6, int64(1000+i), 0x11, 0x22, 0x33, 0x44))
	}
	delta := deltaFrameOf(t, 2, wires...)

	sink := &frameSink{}
	b := NewBatcher(sink, 0, 0)
	for _, w := range wires {
		b.Cast(w)
	}
	b.Flush()
	classic := sink.calls[0].data

	if len(delta) >= len(classic) {
		t.Fatalf("delta frame %dB, classic %dB — no saving", len(delta), len(classic))
	}
	// 9 of 10 subs shrink from ~1+len(wire) bytes to flag+delta+restlen+
	// rest: the elided header is prefix(1+5)+magic/id(3)+sender(1)+seq(2),
	// so the frame should be well under 60% of the classic one here.
	if ratio := float64(len(delta)) / float64(len(classic)); ratio > 0.6 {
		t.Fatalf("delta/classic = %.2f, want <= 0.6 (delta=%dB classic=%dB)", ratio, len(delta), len(classic))
	}
	got := collectWalk(t, NewFrameWalker(2, true), delta)
	for i := range wires {
		if !bytes.Equal(got[i], wires[i]) {
			t.Fatalf("sub %d mangled", i)
		}
	}
}

func TestDeltaStatsCountDeltaSubs(t *testing.T) {
	sink := &frameSink{}
	b := NewBatcher(sink, 0, 0)
	b.EnableCrossFrame(0)
	b.Cast(cwire(nil, 1, 0, 10))
	b.Cast(cwire(nil, 1, 0, 11))
	b.Cast(cwire(nil, 1, 0, 12))
	b.Cast([]byte{0x01, 0xFF}) // opaque
	b.Flush()
	st := b.Stats()
	if st.SubPackets != 4 || st.DeltaSubs != 2 {
		t.Fatalf("stats = %+v, want 4 subs / 2 delta", st)
	}
	if st.FrameBytes != int64(len(sink.calls[0].data)) {
		t.Fatalf("FrameBytes = %d, frame is %dB", st.FrameBytes, len(sink.calls[0].data))
	}
}

func TestDeltaSeqnoOverflowFallsBackToFull(t *testing.T) {
	wires := [][]byte{
		cwire(nil, 9, 1, math.MinInt64),
		cwire(nil, 9, 1, math.MaxInt64), // delta overflows: must not field-delta
		cwire(nil, 9, 1, math.MaxInt64-1),
	}
	sink := &frameSink{}
	b := NewBatcher(sink, 0, 0)
	b.EnableCrossFrame(0)
	for _, w := range wires {
		b.Cast(w)
	}
	b.Flush()
	// The overflowing sub falls back to the shared-prefix form (the two
	// wires share the 4-byte header before the seqno varints diverge);
	// only the third sub field-deltas against the second.
	if st := b.Stats(); st.DeltaSubs != 1 || st.PrefixSubs != 1 {
		t.Fatalf("stats = %+v, want 1 delta / 1 prefix (overflowing sub must fall back)", st)
	}
	got := collectWalk(t, NewFrameWalker(0, true), sink.calls[0].data)
	for i := range wires {
		if !bytes.Equal(got[i], wires[i]) {
			t.Fatalf("sub %d = %x, want %x", i, got[i], wires[i])
		}
	}
}

func TestWalkDeltaFirstInFrameIsGarbage(t *testing.T) {
	// A delta sub with no field base is illegal. On a cold link the
	// base may still be in flight, so the frame parks, surfacing nothing
	// yet; in continuity with a frame whose last sub was opaque (no
	// field base) the tail surfaces as one garbage sub (stray accounting
	// downstream) and the chain asks for a restart. No panic either way.
	frame := xhdr(1, 2)
	off := len(frame)
	frame = append(frame, subIsDelta)
	frame = binary.AppendVarint(frame, 1)
	frame = binary.AppendUvarint(frame, 0)
	if got, res := collectWalkResult(t, NewFrameWalker(2, true), frame); len(got) != 0 || !res.Stashed {
		t.Fatalf("delta-first on a cold link should park, got %q, %+v", got, res)
	}
	w := NewFrameWalker(2, true)
	collectWalk(t, w, deltaFrameOf(t, 2, []byte("opaque")))
	got, res := collectWalkResult(t, w, frame)
	if len(got) != 1 || !bytes.Equal(got[0], frame[off:]) || !res.GenMiss {
		t.Fatalf("delta-first should surface tail as garbage, got %q, %+v", got, res)
	}
}

func TestWalkDeltaUnknownFlagBits(t *testing.T) {
	wire := cwire(nil, 1, 0, 5)
	frame := deltaFrameOf(t, 0, wire)
	// Append a sub whose flag has a reserved bit set.
	bad := append(append([]byte(nil), frame...), 0x20, 0x01, 0x02)
	got := collectWalk(t, NewFrameWalker(0, true), bad)
	if len(got) != 2 {
		t.Fatalf("got %d subs, want 2 (good + garbage)", len(got))
	}
	if !bytes.Equal(got[0], wire) || !bytes.Equal(got[1], []byte{0x20, 0x01, 0x02}) {
		t.Fatalf("subs = %x", got)
	}
	// deltaEpoch without the delta bit is just as unknown, and so is the
	// prefix flag combined with any delta bit.
	for _, flag := range []byte{deltaEpoch, subPrefix | subIsDelta} {
		bad2 := append(append([]byte(nil), frame...), flag)
		if got := collectWalk(t, NewFrameWalker(0, true), bad2); len(got) != 2 || !bytes.Equal(got[1], []byte{flag}) {
			t.Fatalf("flag %#x not treated as garbage: %x", flag, got)
		}
	}
}

// TestPrefixDeltaRoundTripOpaqueWires: wires the field delta cannot
// parse still compress when consecutive ones repeat their leading bytes
// — the ack/gossip case — and come back byte-exact.
func TestPrefixDeltaRoundTripOpaqueWires(t *testing.T) {
	wires := [][]byte{
		[]byte("ack:view7:member3:seq100"),
		[]byte("ack:view7:member3:seq101"),
		[]byte("ack:view7:member3:seq102"),
		[]byte("gossip:view7:digest-aa"),
		[]byte("gossip:view7:digest-ab"),
	}
	sink := &frameSink{}
	b := NewBatcher(sink, 0, 0)
	b.EnableCrossFrame(0)
	for _, w := range wires {
		b.Cast(w)
	}
	b.Flush()
	frame := sink.calls[0].data
	var classic int
	for _, w := range wires {
		classic += 1 + 1 + len(w) // flagless classic sub: uvarint len + bytes
	}
	if len(frame) >= classic {
		t.Fatalf("prefix delta saved nothing: frame %dB, classic ~%dB", len(frame), classic)
	}
	// The two acks after the first and the second gossip wire share
	// prefixes; the first gossip wire shares nothing with the last ack
	// and rides full.
	if st := b.Stats(); st.PrefixSubs != 3 || st.DeltaSubs != 0 {
		t.Fatalf("stats = %+v, want 3 prefix subs", st)
	}
	for _, mode := range []bool{true, false} {
		got := collectWalk(t, NewFrameWalker(0, mode), frame)
		if len(got) != len(wires) {
			t.Fatalf("stable=%t: got %d subs, want %d", mode, len(got), len(wires))
		}
		for i := range wires {
			if !bytes.Equal(got[i], wires[i]) {
				t.Fatalf("stable=%t: sub %d = %q, want %q", mode, i, got[i], wires[i])
			}
		}
	}
}

// TestPrefixDeltaIdenticalWire: a wire identical to its predecessor is
// all prefix — flag, shared length, zero rest.
func TestPrefixDeltaIdenticalWire(t *testing.T) {
	w := []byte("identical-wire-image")
	frame := deltaFrameOf(t, 0, w, w)
	got := collectWalk(t, NewFrameWalker(0, true), frame)
	if len(got) != 2 || !bytes.Equal(got[0], w) || !bytes.Equal(got[1], w) {
		t.Fatalf("subs = %q", got)
	}
	// header (magic, flags, gen, seq) + full sub (1+1+20) + prefix sub
	// (1+1+1)
	if want := 4 + (2 + len(w)) + 3; len(frame) != want {
		t.Fatalf("frame is %dB, want %d", len(frame), want)
	}
}

func TestWalkPrefixFirstInFrameIsGarbage(t *testing.T) {
	// A prefix sub with no previous sub: in continuity with a frame whose
	// last sub was empty there are no bytes to share.
	frame := xhdr(1, 2)
	off := len(frame)
	frame = append(frame, subPrefix)
	frame = binary.AppendUvarint(frame, 4)
	frame = binary.AppendUvarint(frame, 0)
	w := NewFrameWalker(0, true)
	collectWalk(t, w, deltaFrameOf(t, 0, []byte{}))
	got, res := collectWalkResult(t, w, frame)
	if len(got) != 1 || !bytes.Equal(got[0], frame[off:]) || !res.GenMiss {
		t.Fatalf("prefix-first should surface tail as garbage, got %x, %+v", got, res)
	}
}

func TestWalkPrefixLongerThanBaseIsGarbage(t *testing.T) {
	wire := []byte("short")
	frame := deltaFrameOf(t, 0, wire)
	tail := []byte{subPrefix}
	tail = binary.AppendUvarint(tail, uint64(len(wire)+1)) // prefix overruns base
	tail = binary.AppendUvarint(tail, 0)
	bad := append(append([]byte(nil), frame...), tail...)
	got := collectWalk(t, NewFrameWalker(0, true), bad)
	if len(got) != 2 || !bytes.Equal(got[1], tail) {
		t.Fatalf("oversized prefix should surface as garbage: %x", got)
	}
}

func TestWalkPrefixRestOverrunIsGarbage(t *testing.T) {
	frame := deltaFrameOf(t, 0, []byte("base-wire"))
	tail := []byte{subPrefix}
	tail = binary.AppendUvarint(tail, 4)
	tail = binary.AppendUvarint(tail, 100) // declares 100 bytes, none follow
	bad := append(append([]byte(nil), frame...), tail...)
	got := collectWalk(t, NewFrameWalker(0, true), bad)
	if len(got) != 2 || !bytes.Equal(got[1], tail) {
		t.Fatalf("prefix rest overrun should surface as garbage: %x", got)
	}
}

func TestWalkDeltaSeqOverflowIsGarbage(t *testing.T) {
	frame := deltaFrameOf(t, 0, cwire(nil, 1, 0, math.MaxInt64))
	tail := []byte{subIsDelta}
	tail = binary.AppendVarint(tail, 1) // MaxInt64 + 1 overflows
	tail = binary.AppendUvarint(tail, 0)
	bad := append(append([]byte(nil), frame...), tail...)
	got := collectWalk(t, NewFrameWalker(0, true), bad)
	if len(got) != 2 || !bytes.Equal(got[1], tail) {
		t.Fatalf("overflowing delta should surface as garbage: %x", got)
	}
}

func TestWalkDeltaRestLengthOverrun(t *testing.T) {
	frame := deltaFrameOf(t, 0, cwire(nil, 1, 0, 7))
	tail := []byte{subIsDelta}
	tail = binary.AppendVarint(tail, 1)
	tail = binary.AppendUvarint(tail, 100) // declares 100 bytes, none follow
	bad := append(append([]byte(nil), frame...), tail...)
	got := collectWalk(t, NewFrameWalker(0, true), bad)
	if len(got) != 2 || !bytes.Equal(got[1], tail) {
		t.Fatalf("rest-length overrun should surface as garbage: %x", got)
	}
}

func TestWalkDeltaTruncationsNeverPanic(t *testing.T) {
	// Every prefix of a real multi-sub delta frame must decode without
	// panicking, and whatever does not decode must still be surfaced
	// (no silent loss of the tail).
	prefix := []uint64{2, 99}
	frame := deltaFrameOf(t, 2,
		cwire(prefix, 4, 1, 50, 0xA1, 0xA2, 0xA3),
		cwire(prefix, 4, 1, 51, 0xB1),
		cwire(prefix, 4, 2, 52, 0xC1, 0xC2),
	)
	w := NewFrameWalker(2, true)
	for cut := 1; cut <= len(frame); cut++ {
		total := 0
		w.WalkLink(0, 1, frame[:cut], func(sub []byte) { total += len(sub) })
		// All bytes after the magic are accounted for across the subs
		// except framing overhead (flags, length prefixes, elided
		// fields); the invariant we can hold everywhere is simply "no
		// panic and the walker terminates", plus full fidelity at the
		// uncut length, checked below.
		_ = total
	}
	got := collectWalk(t, w, frame)
	if len(got) != 3 {
		t.Fatalf("uncut frame: got %d subs, want 3", len(got))
	}
}

func TestFrameWalkerHandlesClassicAndRaw(t *testing.T) {
	w := NewFrameWalker(2, true)
	classic := frameOf([]byte("one"), []byte("two"))
	got := collectWalk(t, w, classic)
	if len(got) != 2 || string(got[0]) != "one" || string(got[1]) != "two" {
		t.Fatalf("classic frame mis-walked: %q", got)
	}
	raw := []byte{0x42, 0x43}
	if got := collectWalk(t, w, raw); len(got) != 1 || !bytes.Equal(got[0], raw) {
		t.Fatalf("raw packet should surface whole: %q", got)
	}
	// walkFrame itself never understood delta frames; handing it one is
	// the non-frame path (whole-buffer surface), not a misparse.
	delta := deltaFrameOf(t, 0, cwire(nil, 1, 0, 1))
	if got := collectFrame(t, delta); len(got) != 1 || !bytes.Equal(got[0], delta) {
		t.Fatalf("walkFrame should treat a delta frame as opaque: %x", got)
	}
}

func TestFrameWalkerStableSubsOutliveWalk(t *testing.T) {
	prefix := []uint64{1, 11}
	wires := [][]byte{
		cwire(prefix, 2, 0, 10, 0x01),
		cwire(prefix, 2, 0, 11, 0x02),
		cwire(prefix, 2, 0, 12, 0x03),
	}
	frame := deltaFrameOf(t, 2, wires...)
	w := NewFrameWalker(2, true)
	var subs [][]byte
	w.WalkLink(0, 1, frame, func(sub []byte) { subs = append(subs, sub) }) // retained, not copied
	// A second walk must not scribble over the retained subs.
	w.WalkLink(0, 1, frame, func([]byte) {})
	for i := range wires {
		if !bytes.Equal(subs[i], wires[i]) {
			t.Fatalf("retained sub %d corrupted by later walk: %x", i, subs[i])
		}
	}
}

func TestDeltaBatcherRecyclesBuffers(t *testing.T) {
	sink := &discardSink{}
	b := NewBatcher(sink, 0, 0)
	b.EnableCrossFrame(2)
	prefix := []uint64{1, 77}
	wa := cwire(prefix, 3, 0, 100, 0xAA, 0xBB, 0xCC, 0xDD)
	wb := cwire(prefix, 3, 0, 101, 0xEE, 0xFF, 0x11, 0x22)
	for round := 0; round < 3; round++ {
		b.Cast(wa)
		b.Cast(wb)
		b.Flush()
	}
	allocs := testing.AllocsPerRun(100, func() {
		b.Cast(wa)
		b.Cast(wb)
		b.Flush()
	})
	if allocs > 0 {
		t.Fatalf("steady-state delta flush allocates %.1f/op, want 0", allocs)
	}
}

func TestDeltaWalkerScratchModeNoAllocs(t *testing.T) {
	// A chain of frames, each extending the link mirror: the steady-state
	// decode (scratch reconstruction, mirror advance) allocates nothing.
	prefix := []uint64{1, 77}
	sink := &frameSink{}
	b := NewBatcher(sink, 0, 0)
	b.EnableCrossFrame(2)
	for f := 0; f < 110; f++ {
		for i := 0; i < 8; i++ {
			b.Cast(cwire(prefix, 3, 0, int64(100+8*f+i), 0xAA, 0xBB))
		}
		b.Flush()
	}
	w := NewFrameWalker(2, false)
	next := 0
	walk := func(fn func([]byte)) {
		w.WalkLink(0, 1, sink.calls[next].data, fn)
		next++
	}
	walk(func([]byte) {}) // grow the scratch and the mirror once
	walk(func([]byte) {})
	n := 0
	fn := func([]byte) { n++ }
	allocs := testing.AllocsPerRun(100, func() { walk(fn) })
	if allocs > 0 {
		t.Fatalf("scratch-mode walk allocates %.1f/op, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("walker surfaced nothing")
	}
}

func TestEnableDeltaFlushesPendingClassicFrames(t *testing.T) {
	sink := &frameSink{}
	b := NewBatcher(sink, 0, 0)
	b.Cast([]byte("classic"))
	b.EnableCrossFrame(0)
	if len(sink.calls) != 1 || sink.calls[0].data[0] != FrameMagic {
		t.Fatalf("EnableCrossFrame must flush pending classic frames first: %+v", sink.calls)
	}
	b.Cast([]byte("new"))
	b.DisableDelta()
	if len(sink.calls) != 2 || sink.calls[1].data[0] != XFrameMagic {
		t.Fatalf("DisableDelta must flush pending delta frames first: %+v", sink.calls)
	}
	b.Cast([]byte("classic again"))
	b.Flush()
	if len(sink.calls) != 3 || sink.calls[2].data[0] != FrameMagic {
		t.Fatalf("DisableDelta must restore the classic format: %+v", sink.calls)
	}
}

// FuzzFrameWalker feeds malformed sub grammar and classic frames to the
// walker, each against a cold and a seeded mirror.
func FuzzFrameWalker(f *testing.F) {
	prefix := []uint64{7, 0xDEAD}
	hdr := []byte{XFrameMagic, xflagCast, 0x01, 0x02}
	f.Add(append(hdr[:4:4], subIsDelta, 0x02, 0x00))
	f.Add(xframeOf(true, 2, cwire(prefix, 1, 0, 5, 0x01), cwire(prefix, 1, 0, 6)))
	f.Add(frameOf([]byte("a"), []byte("bb")))
	f.Add(append(hdr[:4:4], subFull, 0x05, 'h', 'i'))
	f.Add(append(hdr[:4:4], 0xFF, 0x80, 0x80))
	f.Add(xframeOf(true, 0, []byte("opaque-one"), []byte("opaque-two")))
	f.Add(append(hdr[:4:4], subPrefix, 0x04, 0x00))
	f.Add([]byte{XFrameMagic, 0x00, 0x01, 0x01, subIsDelta, 0x02, 0x00})
	f.Add([]byte{XFrameMagic, 0x01, 0x03, 0x02, subFull, 0x01, 0xAB})
	f.Fuzz(func(t *testing.T, data []byte) {
		walkLinkChecked(t, data, false)
		walkLinkChecked(t, data, true)
	})
}

// FuzzDeltaRoundTrip drives arbitrary field values through one cast
// frame: whatever the batcher emits, the walker must reproduce the
// original wires byte for byte.
func FuzzDeltaRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint16(3), uint64(4), int64(5), int64(6), []byte{0xAA})
	f.Add(uint64(0), uint64(0), uint16(0), uint64(0), int64(math.MaxInt64), int64(math.MinInt64), []byte{})
	f.Fuzz(func(t *testing.T, p0, p1 uint64, id uint16, sender uint64, seq1, seq2 int64, rest []byte) {
		if len(rest) > 256 {
			rest = rest[:256]
		}
		prefix := []uint64{p0, p1}
		wires := [][]byte{
			cwire(prefix, id, sender, seq1, rest...),
			cwire(prefix, id, sender, seq2, rest...),
			cwire(prefix, id+1, sender+1, seq1, rest...),
			// Opaque pair: exercises the shared-prefix fallback (and the
			// full fallback when rest is too short to share 4 bytes).
			append([]byte{0x01}, rest...),
			append([]byte{0x01}, rest...),
		}
		sink := &frameSink{}
		b := NewBatcher(sink, 1, 1<<20)
		b.EnableCrossFrame(2)
		for _, w := range wires {
			b.Cast(w)
		}
		b.Flush()
		if len(sink.calls) != 1 {
			t.Fatalf("expected one frame, got %d", len(sink.calls))
		}
		var got [][]byte
		res := NewFrameWalker(2, true).WalkLink(1, 2, sink.calls[0].data, func(sub []byte) {
			got = append(got, append([]byte(nil), sub...))
		})
		if res.GenMiss || res.StaleGen {
			t.Fatalf("lossless chain reported %+v", res)
		}
		wantSubs(t, got, wires)
	})
}
