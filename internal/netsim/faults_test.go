package netsim

import (
	"testing"
)

// linkBetweenNodes returns the point-to-point link joining a and b.
func linkBetweenNodes(a, b *Node) *Link {
	for _, m := range a.Media() {
		if l, ok := m.(*Link); ok && l.Peer(a) == b {
			return l
		}
	}
	panic("no link between nodes")
}

// TestDropReasonsExhaustive guards the fixed-array drop counters: every
// declared DropReason must round-trip through dropIndex into a distinct
// slot of dropReasons, so adding a reason without extending the index
// enum (or the table) can never silently truncate the commutative
// per-partition counter merge.
func TestDropReasonsExhaustive(t *testing.T) {
	declared := []DropReason{
		DropQueueOverflow, DropCPUBusy, DropNoRoute,
		DropTTLExpired, DropRandomLoss, DropLinkDown, DropNodeDown,
	}
	if len(declared) != numDropReasons {
		t.Fatalf("declared %d drop reasons, counter arrays sized for %d — extend the index enum",
			len(declared), numDropReasons)
	}
	seen := make(map[int]DropReason, numDropReasons)
	for _, r := range declared {
		i := dropIndex(r)
		if i < 0 || i >= numDropReasons {
			t.Fatalf("dropIndex(%q) = %d, out of [0,%d)", r, i, numDropReasons)
		}
		if prev, dup := seen[i]; dup {
			t.Fatalf("dropIndex collision: %q and %q both map to slot %d", prev, r, i)
		}
		seen[i] = r
		if dropReasons[i] != r {
			t.Fatalf("dropReasons[%d] = %q, want %q — table out of order", i, dropReasons[i], r)
		}
	}
	defer expectPanic(t, "dropIndex on unknown reason")
	dropIndex(DropReason("not-a-reason"))
}

// TestLinkScheduledFlap drives a link through FailAt/RestoreAt and
// checks packets are dropped exactly during the outage, with
// DropLinkDown accounting, and flow again after restore.
func TestLinkScheduledFlap(t *testing.T) {
	n, a, b, l := twoHosts(t, LinkConfig{Delay: 0.01})
	var arrivals []float64
	b.OnDeliver = map[Kind]func(*Packet){
		KindData: func(p *Packet) { arrivals = append(arrivals, b.Now()) },
	}
	l.FailAt(1.0)
	l.RestoreAt(2.0)
	// One packet before the outage, two during, one after.
	for _, at := range []float64{0.5, 1.2, 1.7, 2.5} {
		at := at
		a.Schedule(at, "send", func() {
			n.Inject(n.NewPacket(KindData, a.ID, b.ID, 100))
		})
	}
	n.RunUntil(3)
	if len(arrivals) != 2 || arrivals[0] != 0.51 || arrivals[1] != 2.51 {
		t.Fatalf("arrivals = %v, want [0.51 2.51]", arrivals)
	}
	if c := n.Counters(); c.Drops[DropLinkDown] != 2 {
		t.Fatalf("link-down drops = %d, want 2 (counters %+v)", c.Drops[DropLinkDown], c)
	}
	if l.Down() {
		t.Fatal("link still down after RestoreAt fired")
	}
}

// TestLinkFailDropsInFlight: a packet serialized before the failure but
// still propagating when it hits is lost at the receiving end.
func TestLinkFailDropsInFlight(t *testing.T) {
	n, a, b, l := twoHosts(t, LinkConfig{Delay: 0.1})
	got := 0
	b.OnDeliver = map[Kind]func(*Packet){
		KindData: func(p *Packet) { got++ },
	}
	a.Schedule(0.95, "send", func() {
		n.Inject(n.NewPacket(KindData, a.ID, b.ID, 100))
	})
	l.FailAt(1.0) // packet lands at 1.05, after the cut
	n.RunUntil(2)
	if got != 0 {
		t.Fatal("in-flight packet survived a link failure")
	}
	if c := n.Counters(); c.Drops[DropLinkDown] != 1 {
		t.Fatalf("drops = %+v, want one link-down", c.Drops)
	}
}

// TestNodeFailure checks SetFailed: arrivals drop as DropNodeDown, the
// CPU input queue is flushed on crash, local generation stops, and the
// node works again after restore.
func TestNodeFailure(t *testing.T) {
	n := NewNetwork(6)
	nodes := n.BuildChain([]string{"h1", "r", "h2"}, []*CPUConfig{
		nil, {InputQueueCap: 8}, nil,
	}, LinkConfig{Delay: 0.01})
	h1, r, h2 := nodes[0], nodes[1], nodes[2]
	got := 0
	h2.OnDeliver = map[Kind]func(*Packet){
		KindData: func(p *Packet) { got++ },
	}
	send := func(at float64, src *Node, dst NodeID) {
		src.Schedule(at, "send", func() {
			n.Inject(n.NewPacket(KindData, src.ID, dst, 100))
		})
	}
	// Stall the router CPU, park a packet in its input queue, then crash:
	// the parked packet must be flushed as node-down.
	r.Schedule(0.5, "occupy", func() { r.CPU.Occupy(0.3) })
	send(0.59, h1, h2.ID) // arrives 0.6, parked behind the busy CPU
	r.Schedule(0.65, "crash", func() { r.SetFailed(true) })
	send(0.89, h1, h2.ID) // arrives 0.9 at a dead router
	send(1.5, r, h2.ID)   // a dead node generates nothing
	r.Schedule(2.0, "restore", func() { r.SetFailed(false) })
	send(2.49, h1, h2.ID) // arrives 2.5, forwarded normally
	n.RunUntil(3)
	if got != 1 {
		t.Fatalf("delivered %d, want 1 (only the post-restore packet)", got)
	}
	if c := n.Counters(); c.Drops[DropNodeDown] != 3 {
		t.Fatalf("node-down drops = %d, want 3 (counters %+v)", c.Drops[DropNodeDown], c)
	}
	if r.Failed() {
		t.Fatal("node still failed after restore")
	}
	st := r.Stats()
	if st.Dropped[DropNodeDown] != 2 {
		// The flushed queue packet and the dead-arrival; the dead *send*
		// is charged to the network only (never entered the arrival path).
		t.Fatalf("node-local node-down drops = %d, want 2", st.Dropped[DropNodeDown])
	}
}
