package transport

import (
	"bytes"
	"testing"

	"ensemble/internal/event"
)

// xlink is a one-directional test link: a cross-frame Batcher at `from`
// whose flushed frames are walked by a mirror-keeping walker at `to`.
type xlink struct {
	t    *testing.T
	sink *frameSink
	b    *Batcher
	w    *FrameWalker
	from event.Addr
	to   event.Addr
	// fed counts sink calls already walked, so feed() is incremental.
	fed int
}

func newXLink(t *testing.T, nPrefix int, from, to event.Addr) *xlink {
	sink := &frameSink{}
	b := NewBatcher(sink, from, 0)
	b.EnableCrossFrame(nPrefix)
	return &xlink{t: t, sink: sink, b: b, w: NewFrameWalker(nPrefix, true), from: from, to: to}
}

// feed walks every not-yet-walked frame and returns the surfaced subs
// plus the last frame's WalkResult.
func (l *xlink) feed() ([][]byte, WalkResult) {
	l.t.Helper()
	var subs [][]byte
	var res WalkResult
	for ; l.fed < len(l.sink.calls); l.fed++ {
		res = l.w.WalkLink(l.from, l.to, l.sink.calls[l.fed].data, func(sub []byte) {
			subs = append(subs, append([]byte(nil), sub...))
		})
	}
	return subs, res
}

// skip drops not-yet-walked frames on the floor (simulated loss).
func (l *xlink) skip(n int) { l.fed += n }

func wantSubs(t *testing.T, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d subs, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("sub %d = %x, want %x", i, got[i], want[i])
		}
	}
}

func TestXFrameFirstSubDeltasAcrossFrames(t *testing.T) {
	prefix := []uint64{7, 3}
	l := newXLink(t, 2, 1, 2)
	w1 := cwire(prefix, 9, 4, 100, 0xAA)
	w2 := cwire(prefix, 9, 4, 101, 0xBB)
	w3 := cwire(prefix, 9, 4, 102, 0xCC)
	l.b.Send(2, w1)
	l.b.Flush()
	l.b.Send(2, w2)
	l.b.Send(2, w3)
	l.b.Flush()
	subs, res := l.feed()
	wantSubs(t, subs, [][]byte{w1, w2, w3})
	if res.GenMiss || res.StaleGen || !res.XFrame {
		t.Fatalf("clean chain reported %+v", res)
	}
	st := l.b.Stats()
	if st.XFrames != 2 || st.XFirstFull != 1 || st.XFirstDelta != 1 {
		t.Fatalf("first-sub split wrong: %+v", st)
	}
	// The second frame's first sub rode as a delta: the frame must be
	// smaller than a frame carrying the same wire full.
	second := l.sink.calls[1].data
	if len(second) >= len(l.sink.calls[0].data) {
		t.Fatalf("cross-frame first sub saved nothing: %d vs %d bytes",
			len(second), len(l.sink.calls[0].data))
	}
}

func TestXFrameOpaqueWiresChainViaPrefix(t *testing.T) {
	l := newXLink(t, 0, 1, 2)
	a := []byte("gossip-header-payload-one")
	b := []byte("gossip-header-payload-two")
	l.b.Send(2, a)
	l.b.Flush()
	l.b.Send(2, b)
	l.b.Flush()
	subs, res := l.feed()
	wantSubs(t, subs, [][]byte{a, b})
	if res.GenMiss {
		t.Fatalf("opaque chain reported a miss: %+v", res)
	}
	if st := l.b.Stats(); st.XFirstDelta != 1 {
		t.Fatalf("opaque first sub should prefix-delta across frames: %+v", st)
	}
}

func TestXFrameLossTriggersResyncAndRecovers(t *testing.T) {
	prefix := []uint64{1, 1}
	l := newXLink(t, 2, 1, 2)
	wires := make([][]byte, 8)
	for i := range wires {
		wires[i] = cwire(prefix, 5, 1, int64(50+i), byte(i))
	}
	l.b.Send(2, wires[0])
	l.b.Flush()
	subs, _ := l.feed()
	wantSubs(t, subs, wires[:1])

	// Lose the second frame entirely.
	l.b.Send(2, wires[1])
	l.b.Flush()
	l.skip(1)

	// The third frame's first sub needed the lost base: it parks in the
	// reorder stash — the hole could be plain reordering with the
	// predecessor still in flight — with no delivery, no garbage, and no
	// miss yet.
	l.b.Send(2, wires[2])
	l.b.Flush()
	subs, res := l.feed()
	if len(subs) != 0 || !res.Stashed || res.GenMiss || res.StaleGen {
		t.Fatalf("post-loss frame: %d subs, res %+v", len(subs), res)
	}

	// The hole never fills: once the stash outgrows the nag threshold
	// the walker reports the miss that earns a resync.
	l.b.Send(2, wires[3])
	l.b.Flush()
	l.b.Send(2, wires[4])
	l.b.Flush()
	subs, res = l.feed()
	if len(subs) != 0 || !res.GenMiss {
		t.Fatalf("stash past nag must miss: %d subs, res %+v", len(subs), res)
	}

	// The resync round trip: the receiver names the generation it could
	// not decode, the sender bumps, and the chain restarts full-first.
	l.b.HandleResync(2, res.Cast, res.Gen)
	if st := l.b.Stats(); st.ResyncBumps != 1 {
		t.Fatalf("resync must bump once: %+v", st)
	}
	// A duplicate resync for the old generation is ignored.
	l.b.HandleResync(2, res.Cast, res.Gen)
	if st := l.b.Stats(); st.ResyncBumps != 1 {
		t.Fatalf("duplicate resync must not bump again: %+v", st)
	}

	l.b.Send(2, wires[5])
	l.b.Flush()
	l.b.Send(2, wires[6])
	l.b.Flush()
	subs, res = l.feed()
	wantSubs(t, subs, wires[5:7])
	if res.GenMiss {
		t.Fatalf("fresh generation did not re-adopt: %+v", res)
	}
}

func TestXFrameStaleGenerationIsGarbageNotResync(t *testing.T) {
	prefix := []uint64{2, 2}
	l := newXLink(t, 2, 1, 2)
	l.b.Send(2, cwire(prefix, 1, 1, 10))
	l.b.Flush()
	stale := l.sink.calls[0].data // a gen-1 frame, replayed later
	l.feed()

	l.b.BumpGenerations()
	l.b.Send(2, cwire(prefix, 1, 1, 11))
	l.b.Flush()
	if _, res := l.feed(); res.GenMiss {
		t.Fatalf("gen-2 full-first frame missed: %+v", res)
	}

	var n int
	res := l.w.WalkLink(l.from, l.to, stale, func([]byte) { n++ })
	if !res.StaleGen || res.GenMiss || n != 1 {
		t.Fatalf("stale replay: %d subs, res %+v", n, res)
	}
	// And the mirror survived: the live chain keeps decoding.
	l.b.Send(2, cwire(prefix, 1, 1, 12))
	l.b.Flush()
	if _, res := l.feed(); res.GenMiss {
		t.Fatalf("stale replay corrupted the mirror: %+v", res)
	}
}

func TestXFrameDuplicateDoesNotRewindMirror(t *testing.T) {
	prefix := []uint64{3, 3}
	l := newXLink(t, 2, 1, 2)
	w1 := cwire(prefix, 1, 1, 20)
	w2 := cwire(prefix, 1, 1, 21)
	w3 := cwire(prefix, 1, 1, 22)
	l.b.Send(2, w1)
	l.b.Flush()
	first := l.sink.calls[0].data
	l.feed()
	l.b.Send(2, w2)
	l.b.Flush()
	l.feed()

	// Replay frame 1 (full-first, decodable statelessly): it must not
	// rewind the mirror under the in-order successor.
	res := l.w.WalkLink(l.from, l.to, first, func([]byte) {})
	if res.GenMiss || res.StaleGen {
		t.Fatalf("full-first duplicate should decode quietly: %+v", res)
	}
	l.b.Send(2, w3)
	l.b.Flush()
	subs, res := l.feed()
	wantSubs(t, subs, [][]byte{w3})
	if res.GenMiss {
		t.Fatalf("duplicate rewound the mirror: %+v", res)
	}
}

func TestXFrameCastChainSharedAcrossReceivers(t *testing.T) {
	prefix := []uint64{4, 4}
	sink := &frameSink{}
	b := NewBatcher(sink, 1, 0)
	b.EnableCrossFrame(2)
	recv := []*FrameWalker{NewFrameWalker(2, true), NewFrameWalker(2, true)}
	w1 := cwire(prefix, 1, 1, 30)
	w2 := cwire(prefix, 1, 1, 31)
	b.Cast(w1)
	b.Flush()
	b.Cast(w2)
	b.Flush()
	for i, w := range recv {
		for _, call := range sink.calls {
			var got [][]byte
			res := w.WalkLink(1, event.Addr(10+i), call.data, func(sub []byte) {
				got = append(got, append([]byte(nil), sub...))
			})
			if res.GenMiss || !res.Cast {
				t.Fatalf("receiver %d: %+v", i, res)
			}
		}
	}
	if st := b.Stats(); st.XFirstDelta != 1 {
		t.Fatalf("cast chain should delta across frames: %+v", st)
	}
}

func TestXFrameBumpPeerRestartsBothChains(t *testing.T) {
	prefix := []uint64{5, 5}
	sink := &frameSink{}
	b := NewBatcher(sink, 1, 0)
	b.EnableCrossFrame(2)
	b.Send(2, cwire(prefix, 1, 1, 1))
	b.Cast(cwire(prefix, 1, 1, 2))
	b.Flush()
	b.BumpPeer(2)
	b.Send(2, cwire(prefix, 1, 1, 3))
	b.Cast(cwire(prefix, 1, 1, 4))
	b.Flush()
	// After the bump both chains restart: all four frames are full-first.
	if st := b.Stats(); st.XFirstFull != 4 || st.GenBumps != 1 {
		t.Fatalf("BumpPeer must restart pt2pt and cast chains: %+v", st)
	}
	// A rebind of a peer we never sent to directly still restarts the
	// cast chain — the restarted process receives casts with no mirror.
	b.BumpPeer(99)
	if st := b.Stats(); st.GenBumps != 2 {
		t.Fatalf("rebind must restart the cast chain: %+v", st)
	}
	// With no chains at all, BumpPeer is a no-op.
	b2 := NewBatcher(&frameSink{}, 1, 0)
	b2.EnableCrossFrame(2)
	b2.BumpPeer(99)
	if st := b2.Stats(); st.GenBumps != 0 {
		t.Fatalf("no-chain bump counted: %+v", st)
	}
}

func TestXFrameInvalidateFromForcesStatelessDecode(t *testing.T) {
	prefix := []uint64{6, 6}
	l := newXLink(t, 2, 1, 2)
	l.b.Send(2, cwire(prefix, 1, 1, 40))
	l.b.Flush()
	l.feed()
	l.w.InvalidateFrom(1)
	// The next frames' first subs delta against state the receiver just
	// dropped. They cannot decode, but the walker parks them in the
	// reorder stash first — a short gap usually means the predecessor is
	// still in flight — and only nags for a resync once the stash keeps
	// growing, proving the hole is a real discontinuity.
	var res WalkResult
	for i := 0; i <= xStashNag; i++ {
		l.b.Send(2, cwire(prefix, 1, 1, 41+int64(i)))
		l.b.Flush()
		var subs [][]byte
		subs, res = l.feed()
		if len(subs) != 0 || !res.Stashed {
			t.Fatalf("frame %d: undecodable frame must stash silently: %d subs, %+v", i, len(subs), res)
		}
		if wantMiss := i >= xStashNag; res.GenMiss != wantMiss {
			t.Fatalf("frame %d: GenMiss=%v, want %v: %+v", i, res.GenMiss, wantMiss, res)
		}
	}
	l.b.HandleResync(2, res.Cast, res.Gen)
	l.b.Send(2, cwire(prefix, 1, 1, 42))
	l.b.Flush()
	subs, res := l.feed()
	if res.GenMiss || len(subs) != 1 {
		t.Fatalf("post-invalidate recovery failed: %d subs, %+v", len(subs), res)
	}
}

func TestResyncRoundTripAndStrictParse(t *testing.T) {
	pkt := AppendResync(nil, true, 300)
	if !IsResync(pkt) || IsFrame(pkt) {
		t.Fatal("resync packet misclassified")
	}
	cast, gen, ok := ParseResync(pkt)
	if !ok || !cast || gen != 300 {
		t.Fatalf("ParseResync = %v %d %v", cast, gen, ok)
	}
	bad := [][]byte{
		nil,
		{ResyncMagic},
		{ResyncMagic, 0x02, 0x01},       // reserved flag bit
		{ResyncMagic, 0x00, 0x80},       // truncated uvarint
		{ResyncMagic, 0x00, 0x80, 0x00}, // non-minimal uvarint
		append(AppendResync(nil, false, 7), 0xFF), // trailing bytes
	}
	for i, b := range bad {
		if _, _, ok := ParseResync(b); ok {
			t.Fatalf("bad resync %d parsed: %x", i, b)
		}
	}
}

func TestXFrameCorruptHeaderIsGarbageAndSeedsNothing(t *testing.T) {
	prefix := []uint64{8, 8}
	l := newXLink(t, 2, 1, 2)
	l.b.Send(2, cwire(prefix, 1, 1, 60))
	l.b.Flush()
	frame := l.sink.calls[0].data
	for _, corrupt := range [][]byte{
		{XFrameMagic},                   // truncated after magic
		{XFrameMagic, 0x01},             // no generation
		{XFrameMagic, 0x80, 0x01, 0x01}, // reserved flag bit
		{XFrameMagic, 0x00, 0x80},       // truncated gen uvarint
		{XFrameMagic, 0x00, 0x01, 0x00}, // frameSeq 0 is reserved
		func() []byte { // bit-flipped flags byte on a real frame
			c := append([]byte(nil), frame...)
			c[1] ^= 0x40
			return c
		}(),
	} {
		var n int
		res := l.w.WalkLink(1, 2, corrupt, func([]byte) { n++ })
		if n != 1 || res.GenMiss || res.StaleGen {
			t.Fatalf("corrupt header %x: %d subs, res %+v", corrupt, n, res)
		}
	}
	// The real frame still adopts cleanly afterwards: corruption seeded
	// no mirror state.
	var got [][]byte
	res := l.w.WalkLink(1, 2, frame, func(sub []byte) {
		got = append(got, append([]byte(nil), sub...))
	})
	if res.GenMiss || len(got) != 1 || !bytes.Equal(got[0], cwire(prefix, 1, 1, 60)) {
		t.Fatalf("clean frame after corruption: %+v / %x", res, got)
	}
}

func TestXFramePlainWalkDecodesStatelessly(t *testing.T) {
	prefix := []uint64{9, 9}
	l := newXLink(t, 2, 1, 2)
	w1 := cwire(prefix, 1, 1, 70)
	l.b.Send(2, w1)
	l.b.Flush()
	l.b.Send(2, cwire(prefix, 1, 1, 71))
	l.b.Flush()
	// On a link the walker has no mirror for, frame 1 is self-contained
	// and decodes statelessly. Frame 2's first sub needs the cross-frame
	// base of a frame this link never saw: it parks, surfacing nothing,
	// with no panic and no garbage.
	blind := NewFrameWalker(2, true)
	var got [][]byte
	res := blind.WalkLink(l.from, l.to, l.sink.calls[0].data, func(sub []byte) {
		got = append(got, append([]byte(nil), sub...))
	})
	if res.Subs != 1 || !bytes.Equal(got[0], w1) || res.GenMiss {
		t.Fatalf("cold walk of full-first frame: %+v %x", res, got)
	}
	if res := blind.WalkLink(l.from, 3, l.sink.calls[1].data, func([]byte) {}); res.Subs != 0 || !res.Stashed {
		t.Fatalf("cold walk of delta-first frame: %+v, want parked", res)
	}
}

func TestXFrameFutureGenerationAdoptsWhenSelfContained(t *testing.T) {
	// A receiver that was restarted mid-generation sees "future" state:
	// whatever the header claims, a full-first frame adopts statelessly.
	prefix := []uint64{1, 2}
	l := newXLink(t, 2, 1, 2)
	l.b.BumpGenerations() // no chains yet: must be a no-op
	l.b.Send(2, cwire(prefix, 1, 1, 80))
	l.b.Flush()
	l.b.BumpGenerations()
	l.b.BumpGenerations()
	l.b.Send(2, cwire(prefix, 1, 1, 81))
	l.b.Flush()
	l.skip(1) // receiver never saw generation 1
	subs, res := l.feed()
	if res.GenMiss || len(subs) != 1 {
		t.Fatalf("future-generation full-first frame: %d subs, %+v", len(subs), res)
	}
	// And continuity holds from there.
	l.b.Send(2, cwire(prefix, 1, 1, 82))
	l.b.Flush()
	subs, res = l.feed()
	if res.GenMiss || len(subs) != 1 || !bytes.Equal(subs[0], cwire(prefix, 1, 2, 82)) && !bytes.Equal(subs[0], cwire(prefix, 1, 1, 82)) {
		t.Fatalf("continuity after adoption: %d subs, %+v", len(subs), res)
	}
}

// fakeClock is a settable clock for adaptive-flush tests.
type fakeClock struct{ t int64 }

func (c *fakeClock) now() int64 { return c.t }

func TestAdaptiveFlushHoldsAndAgesOut(t *testing.T) {
	prefix := []uint64{1, 1}
	sink := &frameSink{}
	b := NewBatcher(sink, 1, 0)
	b.EnableCrossFrame(2)
	clk := &fakeClock{}
	b.EnableAdaptiveFlush(clk.now)

	// Two appends 10µs apart establish a fast cadence for peer 2.
	b.Send(2, cwire(prefix, 1, 1, 1))
	clk.t += 10_000
	b.Send(2, cwire(prefix, 1, 1, 2))
	if n := b.FlushFor(FlushEntryEnd); n != 0 {
		t.Fatalf("fast chain should hold at entry end, emitted %d", n)
	}
	if b.PendingSubs() != 2 || len(sink.calls) != 0 {
		t.Fatalf("held frame lost: pending %d, calls %d", b.PendingSubs(), len(sink.calls))
	}
	if st := b.Stats(); st.Holds != 1 {
		t.Fatalf("hold not counted: %+v", st)
	}
	// More appends keep landing in the held frame.
	clk.t += 10_000
	b.Send(2, cwire(prefix, 1, 1, 3))
	// Past the hold cap the frame ages out and the barrier emits it.
	clk.t += adaptiveMaxHoldNs
	if n := b.FlushFor(FlushBarrier); n != 1 {
		t.Fatalf("aged frame must emit, got %d", n)
	}
	if len(sink.calls) != 1 {
		t.Fatalf("expected one coalesced frame, got %d", len(sink.calls))
	}
	// The coalesced frame decodes to all three wires.
	var got int
	NewFrameWalker(2, true).WalkLink(1, 2, sink.calls[0].data, func([]byte) { got++ })
	if got != 3 {
		t.Fatalf("coalesced frame carries %d subs, want 3", got)
	}
}

func TestAdaptiveFlushNeverHoldsSlowOrUnknownChains(t *testing.T) {
	prefix := []uint64{1, 1}
	sink := &frameSink{}
	b := NewBatcher(sink, 1, 0)
	b.EnableCrossFrame(2)
	clk := &fakeClock{}
	b.EnableAdaptiveFlush(clk.now)

	// First-ever append: cadence unknown, no hold.
	b.Send(2, cwire(prefix, 1, 1, 1))
	if n := b.FlushFor(FlushEntryEnd); n != 1 {
		t.Fatalf("unknown cadence must not hold, emitted %d", n)
	}
	// Slow chain: gaps way past GapNs, no hold.
	clk.t += 50_000_000
	b.Send(2, cwire(prefix, 1, 1, 2))
	clk.t += 50_000_000
	b.Send(2, cwire(prefix, 1, 1, 3))
	if n := b.FlushFor(FlushEntryEnd); n != 1 {
		t.Fatalf("slow chain must not hold, emitted %d", n)
	}
}

func TestAdaptiveFlushExplicitAndSizeForceEverything(t *testing.T) {
	prefix := []uint64{1, 1}
	sink := &frameSink{}
	b := NewBatcher(sink, 1, 0)
	b.EnableCrossFrame(2)
	clk := &fakeClock{}
	b.EnableAdaptiveFlush(clk.now)
	b.Send(2, cwire(prefix, 1, 1, 1))
	clk.t += 1000
	b.Send(2, cwire(prefix, 1, 1, 2))
	if n := b.FlushFor(FlushEntryEnd); n != 0 {
		t.Fatalf("expected hold, emitted %d", n)
	}
	if n := b.Flush(); n != 1 {
		t.Fatalf("explicit flush must emit held frames, got %d", n)
	}
	if b.PendingSubs() != 0 {
		t.Fatalf("pending after explicit flush: %d", b.PendingSubs())
	}
}

func TestAdaptiveFlushHoldsOnlySuffix(t *testing.T) {
	// Frame order must survive a partial flush: a held suffix may not
	// overtake an emitted prefix, and the next flush emits held frames
	// before anything newer.
	prefix := []uint64{1, 1}
	sink := &frameSink{}
	b := NewBatcher(sink, 1, 0)
	b.EnableCrossFrame(2)
	clk := &fakeClock{}
	b.EnableAdaptiveFlush(clk.now)
	// Establish fast cadence for peer 3 only.
	b.Send(3, cwire(prefix, 1, 1, 1))
	clk.t += 1000
	b.Send(3, cwire(prefix, 1, 1, 2))
	b.Flush()
	base := len(sink.calls)

	clk.t += 1000
	b.Send(2, cwire(prefix, 1, 1, 3)) // cadence unknown: not holdable
	b.Send(3, cwire(prefix, 1, 1, 4)) // fast: holdable, and newest
	if n := b.FlushFor(FlushBarrier); n != 1 {
		t.Fatalf("prefix emit: got %d frames", n)
	}
	if len(sink.calls) != base+1 || sink.calls[base].to != 2 {
		t.Fatalf("emitted wrong frame: %+v", sink.calls)
	}
	clk.t += adaptiveMaxHoldNs
	if n := b.FlushFor(FlushBarrier); n != 1 {
		t.Fatalf("held frame must age out, got %d", n)
	}
	if sink.calls[base+1].to != 3 {
		t.Fatalf("held frame went to %d, want 3", sink.calls[base+1].to)
	}
	// The walker still decodes the reordered-in-time but in-order chain.
	w := NewFrameWalker(2, true)
	for _, c := range sink.calls {
		if res := w.WalkLink(1, c.to, c.data, func([]byte) {}); res.GenMiss {
			t.Fatalf("per-chain order broken: %+v", res)
		}
	}
}

// xframeOf flushes wires through a fresh cross-frame batcher at
// address 1 (cast, or point-to-point to 2) and returns the one frame.
func xframeOf(cast bool, nPrefix int, wires ...[]byte) []byte {
	sink := &frameSink{}
	b := NewBatcher(sink, 1, 0)
	b.EnableCrossFrame(nPrefix)
	for _, w := range wires {
		if cast {
			b.Cast(w)
		} else {
			b.Send(2, w)
		}
	}
	b.Flush()
	return sink.calls[0].data
}

// walkLinkChecked walks data on link 1->2 of a walker with nPrefix
// prefix uvarints, optionally after pre-seeding its point-to-point and
// cast mirrors so the continuity/stale paths run too. Whatever arrived,
// every input byte must be accounted for: the walker surfaces subs or
// garbage (or parks a frame that waits on its predecessor), never
// silently drops a non-frame, and never panics.
func walkLinkChecked(t *testing.T, data []byte, seeded bool) {
	prefix := []uint64{7, 0xDEAD}
	for _, nPrefix := range []int{0, 2} {
		for _, stable := range []bool{true, false} {
			w := NewFrameWalker(nPrefix, stable)
			if seeded {
				w.WalkLink(1, 2, xframeOf(false, 2, cwire(prefix, 1, 0, 9)), func([]byte) {})
				w.WalkLink(1, 2, xframeOf(true, 2, cwire(prefix, 1, 0, 9)), func([]byte) {})
			}
			res := w.WalkLink(1, 2, data, func([]byte) {})
			if len(data) > 0 && res.Subs == 0 && data[0] != FrameMagic && data[0] != XFrameMagic {
				t.Fatalf("non-frame surfaced no subs")
			}
			w.WalkLink(1, 2, data, func([]byte) {}) // mirror state survives reuse
			w.WalkLink(3, 2, data, func([]byte) {}) // a cold link never panics
		}
	}
}

func FuzzXFrameWalkLink(f *testing.F) {
	prefix := []uint64{7, 0xDEAD}
	f.Add(xframeOf(false, 2, cwire(prefix, 1, 0, 5, 0x01), cwire(prefix, 1, 0, 6)), false)
	f.Add([]byte{XFrameMagic, 0x00, 0x01, 0x01, subIsDelta, 0x02, 0x00}, true)
	f.Add([]byte{XFrameMagic, 0x01, 0xFF, 0x01}, false)
	f.Add(AppendResync(nil, true, 77), true)
	f.Add([]byte{XFrameMagic, 0x80}, false)
	f.Fuzz(func(t *testing.T, data []byte, seeded bool) {
		walkLinkChecked(t, data, seeded)
	})
}

// FuzzXFrameRoundTrip drives arbitrary wires through the cross-frame
// encoder and a mirror-keeping walker: across any frame boundary the
// walker must reproduce the original wires byte for byte.
func FuzzXFrameRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint16(3), uint64(4), int64(5), int64(6), []byte{0xAA}, byte(2))
	f.Add(uint64(0), uint64(0), uint16(0), uint64(0), int64(1), int64(-1), []byte{}, byte(1))
	f.Fuzz(func(t *testing.T, p0, p1 uint64, id uint16, sender uint64, seq1, seq2 int64, rest []byte, split byte) {
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
		l := newXLink(t, 2, 1, 2)
		for i, w := range wires {
			l.b.Send(2, w)
			if int(split)%len(wires) == i {
				l.b.Flush() // force a frame boundary mid-stream
			}
		}
		l.b.Flush()
		got, res := l.feed()
		if res.GenMiss || res.StaleGen {
			t.Fatalf("lossless chain reported %+v", res)
		}
		wantSubs(t, got, wires)
	})
}
