package transport

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ensemble/internal/event"
)

// collectFrame runs walkFrame and returns copies of the surfaced subs.
func collectFrame(t *testing.T, data []byte) [][]byte {
	t.Helper()
	var subs [][]byte
	n := walkFrame(data, func(sub []byte) {
		subs = append(subs, append([]byte(nil), sub...))
	})
	if n != len(subs) {
		t.Fatalf("walkFrame returned %d, surfaced %d subs", n, len(subs))
	}
	return subs
}

func frameOf(subs ...[]byte) []byte {
	buf := []byte{FrameMagic}
	for _, s := range subs {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	return buf
}

func TestWalkFrameRoundTrip(t *testing.T) {
	want := [][]byte{[]byte("alpha"), []byte("b"), bytes.Repeat([]byte{0xAB}, 300)}
	got := collectFrame(t, frameOf(want...))
	if len(got) != len(want) {
		t.Fatalf("got %d subs, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("sub %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestWalkFrameNonFrame(t *testing.T) {
	raw := []byte{0x01, 0x02, 0x03}
	got := collectFrame(t, raw)
	if len(got) != 1 || !bytes.Equal(got[0], raw) {
		t.Fatalf("non-frame should surface whole buffer, got %v", got)
	}
}

func TestWalkFrameEmptyAndMagicOnly(t *testing.T) {
	if got := collectFrame(t, []byte{FrameMagic}); len(got) != 0 {
		t.Fatalf("magic-only frame: got %d subs, want 0", len(got))
	}
	// Empty buffer is not a frame: surfaced whole (as an empty sub).
	if got := collectFrame(t, nil); len(got) != 1 {
		t.Fatalf("empty buffer: got %d subs, want 1", len(got))
	}
}

func TestWalkFrameZeroLengthSub(t *testing.T) {
	got := collectFrame(t, frameOf([]byte("x"), nil, []byte("y")))
	if len(got) != 3 {
		t.Fatalf("got %d subs, want 3", len(got))
	}
	if len(got[1]) != 0 {
		t.Fatalf("middle sub should be empty, got %q", got[1])
	}
}

func TestWalkFrameTruncatedPrefix(t *testing.T) {
	// 0x80 starts a multi-byte uvarint that never completes.
	data := append(frameOf([]byte("ok")), 0x80)
	got := collectFrame(t, data)
	if len(got) != 2 {
		t.Fatalf("got %d subs, want 2 (good sub + garbage tail)", len(got))
	}
	if !bytes.Equal(got[0], []byte("ok")) {
		t.Fatalf("first sub = %q, want %q", got[0], "ok")
	}
	if !bytes.Equal(got[1], []byte{0x80}) {
		t.Fatalf("garbage tail = %v, want [0x80]", got[1])
	}
}

func TestWalkFrameLengthOverrun(t *testing.T) {
	// Declared length 100, only 3 bytes follow.
	data := append([]byte{FrameMagic}, binary.AppendUvarint(nil, 100)...)
	data = append(data, 1, 2, 3)
	got := collectFrame(t, data)
	if len(got) != 1 {
		t.Fatalf("got %d subs, want 1 (the overrun tail)", len(got))
	}
	if !bytes.Equal(got[0], []byte{1, 2, 3}) {
		t.Fatalf("tail = %v, want [1 2 3]", got[0])
	}
}

func TestWalkFrameHugeLengthWraps(t *testing.T) {
	// A length near MaxUint64 would wrap int addition; must be treated
	// as an overrun, not a panic or silent success.
	data := append([]byte{FrameMagic}, binary.AppendUvarint(nil, ^uint64(0)>>1)...)
	data = append(data, 9)
	got := collectFrame(t, data)
	if len(got) != 1 || !bytes.Equal(got[0], []byte{9}) {
		t.Fatalf("wrapping length should surface tail, got %v", got)
	}
}

// frameSink records transmissions for batcher tests.
type frameSink struct {
	calls []sinkCall
}

type sinkCall struct {
	cast     bool
	from, to event.Addr
	data     []byte
}

func (s *frameSink) Send(from, to event.Addr, data []byte) {
	s.calls = append(s.calls, sinkCall{from: from, to: to, data: append([]byte(nil), data...)})
}

func (s *frameSink) Cast(from event.Addr, data []byte) {
	s.calls = append(s.calls, sinkCall{cast: true, from: from, data: append([]byte(nil), data...)})
}

func TestBatcherCoalescesPerDestination(t *testing.T) {
	sink := &frameSink{}
	b := NewBatcher(sink, 7, 0)
	b.Send(1, []byte("a1"))
	b.Send(1, []byte("a2"))
	b.Send(2, []byte("b1"))
	if b.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", b.Pending())
	}
	b.Flush()
	if len(sink.calls) != 2 {
		t.Fatalf("sink saw %d calls, want 2", len(sink.calls))
	}
	subs := collectFrame(t, sink.calls[0].data)
	if len(subs) != 2 || string(subs[0]) != "a1" || string(subs[1]) != "a2" {
		t.Fatalf("peer-1 frame subs = %q", subs)
	}
	if sink.calls[0].to != 1 || sink.calls[1].to != 2 || sink.calls[0].from != 7 {
		t.Fatalf("bad addressing: %+v", sink.calls)
	}
	st := b.Stats()
	if st.SubPackets != 3 || st.Frames != 2 || st.Flushes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBatcherPreservesAppendOrder(t *testing.T) {
	// cast, send-to-1, cast: the send must close the first cast frame so
	// the second cast cannot be merged ahead of it (per-peer FIFO).
	sink := &frameSink{}
	b := NewBatcher(sink, 3, 0)
	b.Cast([]byte("c1"))
	b.Send(1, []byte("s1"))
	b.Cast([]byte("c2"))
	b.Flush()
	if len(sink.calls) != 3 {
		t.Fatalf("sink saw %d calls, want 3 (no merge across the send)", len(sink.calls))
	}
	if !sink.calls[0].cast || sink.calls[1].cast || !sink.calls[2].cast {
		t.Fatalf("emission order broken: %+v", sink.calls)
	}
}

func TestBatcherImmediateMode(t *testing.T) {
	sink := &frameSink{}
	b := NewBatcher(sink, 0, 0)
	b.SetImmediate(true)
	b.Cast([]byte("x"))
	b.Cast([]byte("y"))
	if len(sink.calls) != 2 {
		t.Fatalf("immediate mode: sink saw %d calls, want 2", len(sink.calls))
	}
	if b.Pending() != 0 {
		t.Fatalf("immediate mode left %d pending frames", b.Pending())
	}
}

func TestBatcherSizeThresholdFlushes(t *testing.T) {
	sink := &frameSink{}
	b := NewBatcher(sink, 0, 32)
	big := bytes.Repeat([]byte{0xEE}, 40)
	b.Send(1, big)
	if len(sink.calls) != 1 {
		t.Fatalf("oversized wire should flush, sink saw %d calls", len(sink.calls))
	}
	subs := collectFrame(t, sink.calls[0].data)
	if len(subs) != 1 || !bytes.Equal(subs[0], big) {
		t.Fatalf("oversized sub mangled: %d subs", len(subs))
	}
}

func TestBatcherCopiesCallerBuffer(t *testing.T) {
	sink := &frameSink{}
	b := NewBatcher(sink, 0, 0)
	wire := []byte("live")
	b.Send(1, wire)
	wire[0] = 'X'
	b.Flush()
	subs := collectFrame(t, sink.calls[0].data)
	if string(subs[0]) != "live" {
		t.Fatalf("batcher aliased caller buffer: %q", subs[0])
	}
}

// discardSink consumes frames without retaining them, like the netsim
// transmit path does (it copies into its own pools during the call).
type discardSink struct{ frames int }

func (s *discardSink) Send(from, to event.Addr, data []byte) { s.frames++ }
func (s *discardSink) Cast(from event.Addr, data []byte)     { s.frames++ }

func TestBatcherRecyclesBuffers(t *testing.T) {
	sink := &discardSink{}
	b := NewBatcher(sink, 0, 0)
	wa, wb := []byte("wire-to-1"), []byte("wire-to-2")
	for round := 0; round < 3; round++ {
		b.Send(1, wa)
		b.Send(2, wb)
		b.Flush()
	}
	allocs := testing.AllocsPerRun(100, func() {
		b.Send(1, wa)
		b.Send(2, wb)
		b.Flush()
	})
	if allocs > 0 {
		t.Fatalf("steady-state flush allocates %.1f/op, want 0", allocs)
	}
	if sink.frames == 0 {
		t.Fatal("sink saw no frames")
	}
}

func TestRegisterCodecAfterSealPanics(t *testing.T) {
	// Force the seal (any lookup does it).
	if _, err := lookupCodecByLayer("definitely-not-registered"); err == nil {
		t.Fatal("bogus layer lookup unexpectedly succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RegisterCodec after seal did not panic")
		}
	}()
	RegisterCodec(HeaderCodec{Layer: "late-layer", ID: 250})
}

func BenchmarkHeaderCodecLookup(b *testing.B) {
	// "test-a" (id 200) is registered by codec_test.go's init.
	if _, err := lookupCodecByLayer("test-a"); err != nil {
		b.Skip("test codec not registered")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lookupCodecByLayer("test-a"); err != nil {
			b.Fatal(err)
		}
		if _, err := lookupCodecByID(200); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBatcherFlushCauseTaxonomy pins the per-cause flush accounting:
// every flush lands in exactly one cause bucket, and the buckets map to
// their triggers — buffer size, entry end, drain barrier, with the
// remainder explicit.
func TestBatcherFlushCauseTaxonomy(t *testing.T) {
	sink := &frameSink{}
	b := NewBatcher(sink, 7, 16) // tiny budget to force size flushes

	b.Send(1, []byte("0123456789abcdef")) // oversize entry: size flush
	b.Send(1, []byte("x"))
	b.FlushFor(FlushEntryEnd)
	b.Send(2, []byte("y"))
	b.FlushFor(FlushBarrier)
	b.Send(2, []byte("z"))
	b.Flush()
	b.Flush() // empty: must not count

	st := b.Stats()
	if st.SizeFlushes != 1 || st.EntryEndFlushes != 1 || st.BarrierFlushes != 1 {
		t.Fatalf("cause buckets = size %d, entry-end %d, barrier %d; want 1 each",
			st.SizeFlushes, st.EntryEndFlushes, st.BarrierFlushes)
	}
	if st.Flushes != 4 {
		t.Fatalf("total flushes = %d, want 4", st.Flushes)
	}
	if explicit := st.Flushes - st.SizeFlushes - st.EntryEndFlushes - st.BarrierFlushes; explicit != 1 {
		t.Fatalf("explicit remainder = %d, want 1", explicit)
	}
}
