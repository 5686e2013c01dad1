package netsim

import (
	"fmt"
	"testing"

	"routesync/internal/rng"
)

// panics runs fn and reports whether it panicked.
func panics(fn func()) (panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	fn()
	return false
}

// TestPacketPoolProperty drives the slot pool through a seeded random
// schedule of allocations, releases, stale-handle accesses and
// double-release attempts, checking the generation-handle contract at
// every step: live slots keep their payload bytes uncorrupted while
// other slots churn, stale PacketRefs panic on Get, and releasing a
// free slot panics instead of corrupting the free list.
func TestPacketPoolProperty(t *testing.T) {
	nw := NewNetwork(1)
	a := nw.NewNode("a", nil)
	b := nw.NewNode("b", nil)
	nw.Connect(a, b, LinkConfig{Delay: 0.001, Bandwidth: 1e6, QueueCap: 8})

	type held struct {
		ref    PacketRef
		marker byte
		seq    int64
	}
	r := rng.New(42)
	var live []held
	var stale []PacketRef
	maxLive := 0

	for step := 0; step < 20000; step++ {
		switch op := int(r.Uniform(0, 4)); {
		case op == 0 || len(live) == 0: // allocate
			pkt := nw.NewPacket(KindData, a.ID, b.ID, 64)
			marker := byte(step)
			pkt.SetPayload([]byte{marker, marker, marker})
			pkt.Seq = int64(step)
			live = append(live, held{ref: pkt.Ref(), marker: marker, seq: pkt.Seq})
			if len(live) > maxLive {
				maxLive = len(live)
			}
		case op == 1: // release a live packet, verifying its bytes first
			i := int(r.Uniform(0, float64(len(live))))
			h := live[i]
			pkt := h.ref.Get() // must not panic: the handle is current
			if len(pkt.Payload) != 3 || pkt.Payload[0] != h.marker || pkt.Payload[2] != h.marker {
				t.Fatalf("step %d: live packet payload corrupted: %v (marker %d)", step, pkt.Payload, h.marker)
			}
			if pkt.Seq != h.seq {
				t.Fatalf("step %d: live packet Seq corrupted: %d, want %d", step, pkt.Seq, h.seq)
			}
			a.ReleasePacket(pkt)
			stale = append(stale, h.ref)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		case op == 2 && len(stale) > 0: // stale handle access must panic
			ref := stale[int(r.Uniform(0, float64(len(stale))))]
			if ref.Live() {
				t.Fatalf("step %d: released handle reports Live", step)
			}
			if !panics(func() { ref.Get() }) {
				t.Fatalf("step %d: Get on stale PacketRef did not panic", step)
			}
		case op == 3 && len(stale) > 0: // double release must panic
			ref := stale[int(r.Uniform(0, float64(len(stale))))]
			pkt := ref.pkt
			if pkt.live {
				// The slot was re-issued to a later packet; releasing
				// through the old pointer would be a single (legal) release
				// of the new packet, so skip it.
				continue
			}
			if !panics(func() { a.ReleasePacket(pkt) }) {
				t.Fatalf("step %d: double release did not panic", step)
			}
		}
	}

	if got := nw.LivePackets(); got != len(live) {
		t.Fatalf("LivePackets = %d, want %d outstanding", got, len(live))
	}
	// The pool must have recycled slots: far fewer created than the
	// 20000-step schedule allocated.
	if int(nw.pool.created) > maxLive {
		t.Fatalf("pool created %d slots for a schedule that never held more than %d",
			nw.pool.created, maxLive)
	}
}

// TestPacketPoolReuse checks the steady-state contract directly: a
// release followed by an allocation returns the same slot under a new
// generation, and the old handle stays dead.
func TestPacketPoolReuse(t *testing.T) {
	nw := NewNetwork(1)
	a := nw.NewNode("a", nil)
	b := nw.NewNode("b", nil)
	nw.Connect(a, b, LinkConfig{Delay: 0.001, Bandwidth: 1e6, QueueCap: 8})

	pkt := nw.NewPacket(KindData, a.ID, b.ID, 64)
	pkt.SetPayload([]byte("first"))
	old := pkt.Ref()
	a.ReleasePacket(pkt)

	pkt2 := nw.NewPacket(KindData, a.ID, b.ID, 64)
	if pkt2 != pkt {
		t.Fatalf("expected the released slot to be reused")
	}
	if pkt2.Payload != nil {
		t.Fatalf("reissued slot leaked payload: %q", pkt2.Payload)
	}
	if old.Live() {
		t.Fatal("old handle reports Live after slot reuse")
	}
	if !panics(func() { old.Get() }) {
		t.Fatal("Get on a reissued slot's old handle did not panic")
	}
	if got := pkt2.Ref().Get(); got != pkt2 {
		t.Fatal("fresh handle on reissued slot must resolve")
	}
}

// TestUnpooledPacketsPassThrough checks that Packet literals (tests,
// external constructions) flow through every release sink as no-ops and
// that their refs never go stale.
func TestUnpooledPacketsPassThrough(t *testing.T) {
	nw := NewNetwork(1)
	a := nw.NewNode("a", nil)
	b := nw.NewNode("b", nil)
	nw.Connect(a, b, LinkConfig{Delay: 0.001, Bandwidth: 1e6, QueueCap: 8})

	pkt := &Packet{Kind: KindData, Src: a.ID, Dst: b.ID, Size: 64, TTL: 4}
	ref := pkt.Ref()
	a.ReleasePacket(pkt) // no-op
	a.ReleasePacket(pkt) // still a no-op, not a double-release panic
	if !ref.Live() {
		t.Fatal("unpooled packet ref must stay live")
	}
	if ref.Get() != pkt {
		t.Fatal("unpooled packet ref must resolve")
	}
	if nw.LivePackets() != 0 {
		t.Fatalf("unpooled packet counted as live: %d", nw.LivePackets())
	}
}

// TestSetPayloadCopies checks the payload-arena contract: SetPayload
// detaches the packet from the caller's buffer, and the arena survives
// release/reuse cycles without leaking bytes across lifetimes.
func TestSetPayloadCopies(t *testing.T) {
	nw := NewNetwork(1)
	a := nw.NewNode("a", nil)
	b := nw.NewNode("b", nil)
	nw.Connect(a, b, LinkConfig{Delay: 0.001, Bandwidth: 1e6, QueueCap: 8})

	scratch := []byte("hello world")
	pkt := nw.NewPacket(KindData, a.ID, b.ID, 64)
	pkt.SetPayload(scratch)
	scratch[0] = 'X'
	if string(pkt.Payload) != "hello world" {
		t.Fatalf("SetPayload aliased the caller's buffer: %q", pkt.Payload)
	}
	// Shrinking reuse: a shorter payload must not expose old bytes.
	pkt.SetPayload([]byte("hi"))
	if string(pkt.Payload) != "hi" {
		t.Fatalf("payload after shrink = %q", pkt.Payload)
	}
}

// TestLivePacketsAcrossPartitions checks the created-minus-free
// accounting with per-partition pools: packets created in one LP and
// terminated in another keep the global count exact.
func TestLivePacketsAcrossPartitions(t *testing.T) {
	nw := NewNetwork(1)
	var nodes []*Node
	for i := 0; i < 4; i++ {
		nodes = append(nodes, nw.NewNode(fmt.Sprintf("n%d", i), nil))
	}
	for i := 0; i+1 < 4; i++ {
		nw.Connect(nodes[i], nodes[i+1], LinkConfig{Delay: 0.01, Bandwidth: 1e6, QueueCap: 8})
	}
	nw.InstallRoutesToward(allNodes(nw))
	nw.Partition(2, func(id NodeID) int { return int(id) / 2 })

	// Round trips: n0 → n3 data, delivered (and released) in partition 1.
	for i := 0; i < 50; i++ {
		pkt := nw.NewPacket(KindData, nodes[0].ID, nodes[3].ID, 64)
		nw.Inject(pkt)
		nw.RunUntil(nw.Now() + 1)
		if got := nw.LivePackets(); got != 0 {
			t.Fatalf("round %d: LivePackets = %d after quiescence", i, got)
		}
	}
	// Nothing in transit either: queues, in-flight windows and boundary
	// machinery are all drained at quiescence.
	if nw.ParkedPackets() != 0 {
		t.Fatalf("ParkedPackets = %d at quiescence", nw.ParkedPackets())
	}
}

// Live reports whether the handle still refers to a live packet.
func (r PacketRef) Live() bool {
	return r.pkt != nil && (!r.pkt.pooled || (r.pkt.live && r.pkt.gen == r.gen))
}

// TestPayloadArena checks the encode-in-place contract: PayloadArena
// hands out the slot's own arena, emptied and grown to exactly the
// capacity SetPayload's copy of n bytes would give; a message appended
// to it and committed is the payload, with no copy; and a later message
// that fits reuses the same array across release/reuse.
func TestPayloadArena(t *testing.T) {
	nw := NewNetwork(1)
	a := nw.NewNode("a", nil)
	b := nw.NewNode("b", nil)
	nw.Connect(a, b, LinkConfig{Delay: 0.001, Bandwidth: 1e6, QueueCap: 8})

	msg := []byte("hello, wire")
	pkt := nw.NewPacket(KindData, a.ID, b.ID, 64)
	buf := pkt.PayloadArena(len(msg))
	if len(buf) != 0 || cap(buf) != cap(append([]byte(nil), msg...)) {
		t.Fatalf("fresh arena len %d cap %d, want 0 and a fresh copy's %d", len(buf), cap(buf), cap(append([]byte(nil), msg...)))
	}
	buf = append(buf, msg...)
	pkt.CommitPayload(buf)
	if string(pkt.Payload) != string(msg) || &pkt.Payload[0] != &buf[0] {
		t.Fatalf("committed payload %q does not alias the encoded buffer", pkt.Payload)
	}
	a.ReleasePacket(pkt)

	pkt2 := nw.NewPacket(KindData, a.ID, b.ID, 64)
	if pkt2 != pkt {
		t.Fatal("expected the released slot to be reused")
	}
	short := pkt2.PayloadArena(2)
	if cap(short) != cap(buf) || &short[:1][0] != &buf[0] {
		t.Fatal("a shorter message did not reuse the slot's arena")
	}
	pkt2.CommitPayload(append(short, "hi"...))
	if string(pkt2.Payload) != "hi" {
		t.Fatalf("payload after shrink = %q", pkt2.Payload)
	}
	// Growing past the arena sizes it as SetPayload's copy would.
	long := make([]byte, 100)
	var ref Packet
	ref.SetPayload(buf[:cap(buf)])
	ref.SetPayload(long)
	if got := pkt2.PayloadArena(len(long)); cap(got) != cap(ref.Payload) {
		t.Fatalf("grown arena cap %d, SetPayload's copy %d", cap(got), cap(ref.Payload))
	}
}
