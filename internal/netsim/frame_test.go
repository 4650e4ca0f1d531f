package netsim

// Batched-frame delivery tests: the network substrates unpack coalesced
// frames (transport.FrameMagic + length-prefixed sub-packets) so that a
// receiver sees one recv call per wire, while the Stats invariant stays
// at the transmission level (one frame = one Sent = one Delivered).

import (
	"encoding/binary"
	"testing"

	"ensemble/internal/event"
	"ensemble/internal/transport"
)

func buildFrame(subs ...[]byte) []byte {
	buf := []byte{transport.FrameMagic}
	for _, s := range subs {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	return buf
}

// TestNetDeliversFrameSubPackets: the link model fans a batched frame
// out into one recv call per sub-packet and passes a raw packet through
// whole, while the Stats invariant stays frame-level.
func TestNetDeliversFrameSubPackets(t *testing.T) {
	var got [][]byte
	c := attachCluster(1, Profile{Latency: 1000}, func(a event.Addr) func(Packet) {
		if a != 2 {
			return nil
		}
		return func(p Packet) { got = append(got, append([]byte(nil), p.Data...)) }
	}, 1, 2)

	frame := buildFrame([]byte("alpha"), []byte("b"), []byte("ccc"))
	c.Enqueue(0, 0, func() {
		c.eps[0].Send(1, 2, frame)
		c.eps[0].Send(1, 2, []byte{0x01, 0x02}) // raw packet, passed through whole
	})
	c.Run(int64(1e9))

	if len(got) != 4 {
		t.Fatalf("receiver saw %d packets, want 4 (3 subs + 1 raw)", len(got))
	}
	if string(got[0]) != "alpha" || string(got[1]) != "b" || string(got[2]) != "ccc" {
		t.Fatalf("sub-packets mangled: %q", got[:3])
	}
	if string(got[3]) != "\x01\x02" {
		t.Fatalf("raw packet mangled: % x", got[3])
	}
	st := c.Net().Stats()
	if st.Sent != 2 || st.Delivered != 2 {
		t.Fatalf("invariant must stay frame-level: %+v", st)
	}
	if st.Frames != 1 || st.SubPackets != 3 {
		t.Fatalf("Frames=%d SubPackets=%d, want 1/3", st.Frames, st.SubPackets)
	}
	if st.Sent+st.Duplicated != st.Delivered+st.Dropped {
		t.Fatalf("stats invariant broken: %+v", st)
	}
}

func TestClusterArriveUnpacksFrames(t *testing.T) {
	c := NewCluster(3, Profile{Latency: 1000})
	var got []string
	for i := 0; i < 2; i++ {
		ep := c.NewEndpoint(event.Addr(i + 1))
		ep.Attach(ep.Addr(), func(p Packet) { got = append(got, string(p.Data)) })
	}
	c.Enqueue(0, 0, func() {
		c.eps[0].Send(1, 2, buildFrame([]byte("x1"), []byte("x2")))
		c.eps[0].Cast(1, buildFrame([]byte("y1")))
	})
	c.Run(int64(1e9))

	want := []string{"x1", "x2", "y1"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	st := c.Net().Stats()
	if st.Sent != 2 || st.Delivered != 2 || st.Frames != 2 || st.SubPackets != 3 {
		t.Fatalf("cluster frame accounting: %+v", st)
	}
}

// TestAdaptiveQuantumDeterminism: the adaptive controller reads only the
// per-batch routed-event count, so Run and RunConcurrent still produce
// byte-identical traces for the same seed while the window scales.
func TestAdaptiveQuantumDeterminism(t *testing.T) {
	mk := func() *Cluster {
		c := clusterEcho(7, Lossy(0.2), 6, 5)
		c.EnableAdaptiveQuantum(1_000, 40_000)
		return c
	}
	seq := mk()
	seq.Run(int64(5e9))
	conc := mk()
	conc.RunConcurrent(int64(5e9), 3) // fewer workers than members
	if seq.TraceString() != conc.TraceString() {
		t.Fatal("adaptive-quantum traces diverge between Run and RunConcurrent")
	}
	if seq.quantum == 1_000 {
		t.Fatal("quantum never adapted from its floor")
	}
}

// TestAdaptiveQuantumClamps: the controller stays inside [min, max] and
// a zero/negative floor is lifted to 1 so doubling can always make
// progress.
func TestAdaptiveQuantumClamps(t *testing.T) {
	c := clusterEcho(9, Profile{Latency: 50_000}, 3, 4)
	c.EnableAdaptiveQuantum(0, 8_000)
	if c.qMin != 1 {
		t.Fatalf("qMin = %d, want 1", c.qMin)
	}
	c.Run(int64(5e9))
	if c.quantum < c.qMin || c.quantum > c.qMax {
		t.Fatalf("quantum %d escaped [%d, %d]", c.quantum, c.qMin, c.qMax)
	}
}

// --- delta-compressed frames through the netsim substrates ---

// compressedWire builds a compressed wire image the way core.Member emits
// them: epoch prefix uvarints, then the 0xC0 compressed header.
func compressedWire(epochSeq, viewTag uint64, id uint16, sender uint64, seq int64, rest ...byte) []byte {
	w := binary.AppendUvarint(nil, epochSeq)
	w = binary.AppendUvarint(w, viewTag)
	w = append(w, transport.WireCompressed, byte(id), byte(id>>8))
	w = binary.AppendUvarint(w, sender)
	w = binary.AppendVarint(w, seq)
	return append(w, rest...)
}

// frameCapture is a BatchSink that keeps copies of flushed frames.
type frameCapture struct{ frames [][]byte }

func (c *frameCapture) Send(from, to event.Addr, data []byte) {
	c.frames = append(c.frames, append([]byte(nil), data...))
}
func (c *frameCapture) Cast(from event.Addr, data []byte) {
	c.frames = append(c.frames, append([]byte(nil), data...))
}

// deltaFrame batches the wires with delta compression on (member epoch
// prefix) and returns the single resulting frame.
func deltaFrame(t *testing.T, wires ...[]byte) []byte {
	t.Helper()
	sink := &frameCapture{}
	b := transport.NewBatcher(sink, 1, 1<<20)
	b.EnableCrossFrame(transport.EpochPrefixUvarints)
	for _, w := range wires {
		b.Cast(w)
	}
	b.Flush()
	if len(sink.frames) != 1 {
		t.Fatalf("batcher emitted %d frames, want 1", len(sink.frames))
	}
	return sink.frames[0]
}

// TestNetDeltaGarbageKeepsInvariant: a corrupt delta frame (a good
// first sub, then a sub with unknown flag bits) surfaces its good sub
// and then its tail as one garbage sub — delivered, counted, no panic —
// and answers the broken chain with one resync, so the frame-level
// invariant survives malformed input exactly as it does for classic
// frames.
func TestNetDeltaGarbageKeepsInvariant(t *testing.T) {
	wire := compressedWire(3, 7, 12, 1, 100, 0xAA)
	tail := []byte{0xFF, 0x00, 0x02}
	frame := append(deltaFrame(t, wire), tail...)
	var got [][]byte
	c := attachCluster(1, Profile{Latency: 1000}, func(a event.Addr) func(Packet) {
		if a != 2 {
			return nil
		}
		return func(p Packet) { got = append(got, p.Data) }
	}, 1, 2)
	c.Enqueue(0, 0, func() { c.eps[0].Send(1, 2, frame) })
	c.Run(int64(1e9))

	if len(got) != 2 || string(got[0]) != string(wire) || string(got[1]) != string(tail) {
		t.Fatalf("garbage tail not surfaced whole: %v", got)
	}
	st := c.Net().Stats()
	if st.Frames != 1 || st.SubPackets != 2 || st.GenMisses != 1 || st.Resyncs != 1 {
		t.Fatalf("garbage accounting: %+v", st)
	}
	// The frame and the resync answering it: two transmissions.
	if st.Sent != 2 || st.Delivered != 2 {
		t.Fatalf("transmission accounting: %+v", st)
	}
	if st.Sent+st.Duplicated != st.Delivered+st.Dropped {
		t.Fatalf("stats invariant broken: %+v", st)
	}
}

// TestNetDeliversDeltaFrameSubPackets: a delta-compressed frame fans out
// into the original wires, byte for byte, while the Stats invariant stays
// at the transmission level and BytesOnWire counts the compressed frame.
func TestNetDeliversDeltaFrameSubPackets(t *testing.T) {
	wires := [][]byte{
		compressedWire(3, 7, 12, 1, 100, 0xAA),
		compressedWire(3, 7, 12, 1, 101, 0xBB), // pure delta: elided header
		compressedWire(3, 7, 12, 1, 102, 0xCC),
		compressedWire(4, 7, 12, 1, 0, 0xDD), // epoch changed: explicit
	}
	frame := deltaFrame(t, wires...)
	sum := 0
	for _, w := range wires {
		sum += len(w)
	}
	if len(frame) >= sum {
		t.Fatalf("delta frame (%dB) not smaller than its wires (%dB)", len(frame), sum)
	}

	var got [][]byte
	c := attachCluster(1, Profile{Latency: 1000}, func(a event.Addr) func(Packet) {
		if a != 2 {
			return nil
		}
		return func(p Packet) { got = append(got, p.Data) } // retained, no copy: stable walker
	}, 1, 2)
	c.Enqueue(0, 0, func() { c.eps[0].Send(1, 2, frame) })
	c.Run(int64(1e9))

	if len(got) != len(wires) {
		t.Fatalf("receiver saw %d subs, want %d", len(got), len(wires))
	}
	for i, w := range wires {
		if string(got[i]) != string(w) {
			t.Fatalf("sub %d: got % x, want % x", i, got[i], w)
		}
	}
	st := c.Net().Stats()
	if st.Sent != 1 || st.Delivered != 1 || st.Frames != 1 || st.SubPackets != int64(len(wires)) {
		t.Fatalf("frame accounting: %+v", st)
	}
	if st.BytesOnWire != int64(len(frame)) {
		t.Fatalf("BytesOnWire = %d, want frame size %d", st.BytesOnWire, len(frame))
	}
	if st.Sent+st.Duplicated != st.Delivered+st.Dropped {
		t.Fatalf("stats invariant broken: %+v", st)
	}
}

// TestClusterArriveUnpacksDeltaFrames: the mailbox path decodes delta
// frames too, and because the walker runs in stable mode the subs stay
// intact after further frames are walked (mailboxes hold subs across
// deliveries within a drain).
func TestClusterArriveUnpacksDeltaFrames(t *testing.T) {
	wires := [][]byte{
		compressedWire(1, 1, 9, 1, 5, 'a'),
		compressedWire(1, 1, 9, 1, 6, 'b'),
		compressedWire(1, 1, 9, 1, 7, 'c'),
	}
	c := NewCluster(3, Profile{Latency: 1000})
	var got [][]byte
	for i := 0; i < 2; i++ {
		ep := c.NewEndpoint(event.Addr(i + 1))
		ep.Attach(ep.Addr(), func(p Packet) { got = append(got, p.Data) })
	}
	frame := deltaFrame(t, wires...)
	c.Enqueue(0, 0, func() {
		c.eps[0].Send(1, 2, frame)
		c.eps[0].Cast(1, deltaFrame(t, wires[0]))
	})
	c.Run(int64(1e9))

	if len(got) != 4 {
		t.Fatalf("got %d subs, want 4", len(got))
	}
	for i := 0; i < 3; i++ {
		if string(got[i]) != string(wires[i]) {
			t.Fatalf("sub %d mangled: % x", i, got[i])
		}
	}
	if string(got[3]) != string(wires[0]) {
		t.Fatalf("cast sub mangled: % x", got[3])
	}
	st := c.Net().Stats()
	if st.Sent != 2 || st.Delivered != 2 || st.Frames != 2 || st.SubPackets != 4 {
		t.Fatalf("cluster delta accounting: %+v", st)
	}
}

// TestNetCastBytesOnWireCountsOnce: a multicast frame's bytes land on the
// wire once, however many receivers fan out (BytesSent keeps the
// per-receiver figure).
func TestNetCastBytesOnWireCountsOnce(t *testing.T) {
	c := attachCluster(1, Profile{}, nil, 1, 2, 3, 4)
	data := []byte("hello world")
	c.Enqueue(0, 0, func() { c.eps[0].Cast(1, data) })
	c.Run(int64(1e9))
	st := c.Net().Stats()
	if st.BytesOnWire != int64(len(data)) {
		t.Fatalf("BytesOnWire = %d, want %d (counted once)", st.BytesOnWire, len(data))
	}
	if st.BytesSent != int64(3*len(data)) {
		t.Fatalf("BytesSent = %d, want %d (per receiver)", st.BytesSent, 3*len(data))
	}
}
