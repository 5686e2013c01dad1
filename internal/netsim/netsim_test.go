package netsim

import (
	"math"
	"testing"
	"testing/quick"

	"routesync/internal/rng"
)

// allNodes lists every node id of nw, to install routes toward all of
// them.
func allNodes(nw *Network) []NodeID {
	ids := make([]NodeID, nw.NumNodes())
	for i := range ids {
		ids[i] = NodeID(i)
	}
	return ids
}

// twoHosts builds A —link— B with the given config and static routes.
func twoHosts(t *testing.T, cfg LinkConfig) (*Network, *Node, *Node, *Link) {
	t.Helper()
	n := NewNetwork(1)
	a := n.NewNode("a", nil)
	b := n.NewNode("b", nil)
	l := n.Connect(a, b, cfg)
	n.InstallRoutesToward(allNodes(n))
	return n, a, b, l
}

func TestDeliveryOverOneLink(t *testing.T) {
	n, a, b, _ := twoHosts(t, LinkConfig{Delay: 0.01})
	var deliveredAt float64 = -1
	b.OnDeliver = map[Kind]func(*Packet){
		KindData: func(p *Packet) { deliveredAt = n.Sim.Now() },
	}
	pkt := n.NewPacket(KindData, a.ID, b.ID, 100)
	n.Inject(pkt)
	n.RunUntil(1)
	if deliveredAt != 0.01 {
		t.Fatalf("delivered at %v, want 0.01", deliveredAt)
	}
	c := n.Counters()
	if c.Injected != 1 || c.Delivered != 1 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestSerializationDelay(t *testing.T) {
	// 1000-byte packet over 1 Mbit/s: 8 ms serialization + 2 ms prop.
	n, a, b, _ := twoHosts(t, LinkConfig{Delay: 0.002, Bandwidth: 1e6})
	var at float64 = -1
	b.OnDeliver = map[Kind]func(*Packet){
		KindData: func(p *Packet) { at = n.Sim.Now() },
	}
	n.Inject(n.NewPacket(KindData, a.ID, b.ID, 1000))
	n.RunUntil(1)
	if math.Abs(at-0.010) > 1e-9 {
		t.Fatalf("delivered at %v, want 0.010", at)
	}
}

func TestLinkQueueingSerializesBackToBack(t *testing.T) {
	// Two packets injected at t=0 on a 1 Mbit/s link arrive 8 ms apart.
	n, a, b, _ := twoHosts(t, LinkConfig{Delay: 0, Bandwidth: 1e6})
	var arrivals []float64
	b.OnDeliver = map[Kind]func(*Packet){
		KindData: func(p *Packet) { arrivals = append(arrivals, n.Sim.Now()) },
	}
	n.Inject(n.NewPacket(KindData, a.ID, b.ID, 1000))
	n.Inject(n.NewPacket(KindData, a.ID, b.ID, 1000))
	n.RunUntil(1)
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	if math.Abs(arrivals[0]-0.008) > 1e-9 || math.Abs(arrivals[1]-0.016) > 1e-9 {
		t.Fatalf("arrivals = %v, want [0.008 0.016]", arrivals)
	}
}

func TestLinkQueueOverflowDrops(t *testing.T) {
	n, a, b, l := twoHosts(t, LinkConfig{Delay: 0, Bandwidth: 1e6, QueueCap: 2})
	got := 0
	b.OnDeliver = map[Kind]func(*Packet){
		KindData: func(p *Packet) { got++ },
	}
	// One serializing + 2 queued + 2 dropped.
	for i := 0; i < 5; i++ {
		n.Inject(n.NewPacket(KindData, a.ID, b.ID, 1000))
	}
	if q := l.tx[l.dir(a)].queue.Len(); q != 2 {
		t.Fatalf("queue length = %d, want 2", q)
	}
	n.RunUntil(1)
	if got != 3 {
		t.Fatalf("delivered %d, want 3", got)
	}
	c := n.Counters()
	if c.Drops[DropQueueOverflow] != 2 {
		t.Fatalf("overflow drops = %d, want 2", c.Drops[DropQueueOverflow])
	}
}

func TestChainForwarding(t *testing.T) {
	n := NewNetwork(2)
	nodes := n.BuildChain([]string{"h1", "r1", "r2", "h2"}, nil, LinkConfig{Delay: 0.005})
	var at float64 = -1
	last := nodes[3]
	last.OnDeliver = map[Kind]func(*Packet){
		KindData: func(p *Packet) { at = n.Sim.Now() },
	}
	n.Inject(n.NewPacket(KindData, nodes[0].ID, last.ID, 100))
	n.RunUntil(1)
	if math.Abs(at-0.015) > 1e-9 {
		t.Fatalf("3-hop delivery at %v, want 0.015", at)
	}
	if c := n.Counters(); c.Forwarded != 2 {
		t.Fatalf("forwarded = %d, want 2 (two transit routers)", c.Forwarded)
	}
}

func TestNoRouteDrop(t *testing.T) {
	n := NewNetwork(3)
	a := n.NewNode("a", nil)
	b := n.NewNode("b", nil)
	n.Connect(a, b, LinkConfig{})
	// no static routes installed
	n.Inject(n.NewPacket(KindData, a.ID, b.ID, 100))
	n.RunUntil(1)
	if c := n.Counters(); c.Drops[DropNoRoute] != 1 {
		t.Fatalf("drops = %+v, want one no-route", c.Drops)
	}
}

func TestTTLExpiry(t *testing.T) {
	// Forwarding loop: a → b → a → ... TTL must kill the packet.
	n := NewNetwork(4)
	a := n.NewNode("a", nil)
	b := n.NewNode("b", nil)
	l := n.Connect(a, b, LinkConfig{})
	dst := n.NewNode("unreachable", nil)
	a.SetRoute(dst.ID, l, b.ID)
	b.SetRoute(dst.ID, l, a.ID) // loop back
	pkt := n.NewPacket(KindData, a.ID, dst.ID, 100)
	n.Inject(pkt)
	n.RunUntil(10)
	c := n.Counters()
	if c.Drops[DropTTLExpired] != 1 {
		t.Fatalf("drops = %+v, want one ttl-expired", c.Drops)
	}
	if c.Forwarded == 0 || c.Forwarded > 64 {
		t.Fatalf("forwarded = %d, want 1..64", c.Forwarded)
	}
}

func TestRandomLoss(t *testing.T) {
	n, a, b, _ := twoHosts(t, LinkConfig{})
	b.LossProb = 0.5
	got := 0
	b.OnDeliver = map[Kind]func(*Packet){
		KindData: func(p *Packet) { got++ },
	}
	const total = 10000
	for i := 0; i < total; i++ {
		at := float64(i) * 0.001 // space injections so no queue overflows
		n.Sim.Schedule(at, "inject", func() {
			n.Inject(n.NewPacket(KindData, a.ID, b.ID, 100))
		})
	}
	n.RunUntil(11)
	c := n.Counters()
	lost := int(c.Drops[DropRandomLoss])
	if got+lost != total {
		t.Fatalf("conservation violated: %d + %d != %d", got, lost, total)
	}
	if math.Abs(float64(lost)/total-0.5) > 0.02 {
		t.Fatalf("loss rate = %v, want ~0.5", float64(lost)/total)
	}
}

func TestCPULegacyBlocksForwarding(t *testing.T) {
	// h1 — r (legacy CPU) — h2; occupy r's CPU, inject during busy.
	n := NewNetwork(5)
	nodes := n.BuildChain(
		[]string{"h1", "r", "h2"},
		[]*CPUConfig{nil, {InputQueueCap: 0}},
		LinkConfig{},
	)
	r, h2 := nodes[1], nodes[2]
	got := 0
	h2.OnDeliver = map[Kind]func(*Packet){
		KindData: func(p *Packet) { got++ },
	}
	n.Sim.Schedule(1.0, "occupy", func() { r.CPU.Occupy(0.3) })
	// Packet during busy period: dropped.
	n.Sim.Schedule(1.1, "inject-busy", func() {
		n.Inject(n.NewPacket(KindData, nodes[0].ID, h2.ID, 100))
	})
	// Packet after busy period: delivered.
	n.Sim.Schedule(1.5, "inject-idle", func() {
		n.Inject(n.NewPacket(KindData, nodes[0].ID, h2.ID, 100))
	})
	n.RunUntil(10)
	if got != 1 {
		t.Fatalf("delivered %d, want 1", got)
	}
	if c := n.Counters(); c.Drops[DropCPUBusy] != 1 {
		t.Fatalf("drops = %+v, want one cpu-busy", c.Drops)
	}
}

// TestNodeStatsCounters checks each node's packet accounting on a chain:
// ten data packets each way through the transit router, one routing
// packet to it, and one data packet while its CPU is stalled.
func TestNodeStatsCounters(t *testing.T) {
	n := NewNetwork(7)
	nodes := n.BuildChain([]string{"src", "r", "dst"}, []*CPUConfig{nil, {}}, LinkConfig{Delay: 0.01})
	src, r, dst := nodes[0], nodes[1], nodes[2]
	inject := func(at float64, kind Kind, from, to *Node) {
		n.Sim.Schedule(at, "inject", func() { n.Inject(n.NewPacket(kind, from.ID, to.ID, 100)) })
	}
	for at := 1.0; at <= 10; at++ {
		inject(at, KindData, src, dst)
		inject(at+0.5, KindData, dst, src)
	}
	inject(15, KindRouting, src, r)
	n.Sim.Schedule(20, "occupy", func() { r.CPU.Occupy(1) })
	inject(20.1, KindData, src, dst)
	n.RunUntil(30)
	if st := r.Stats(); st.Received != 22 || st.ForwardedOut != 20 || st.DeliveredLocal != 0 || st.RoutingIn != 1 ||
		len(st.Dropped) != 1 || st.Dropped[DropCPUBusy] != 1 {
		t.Fatalf("router stats = %+v, want 22 received, 20 forwarded, 1 routing, 1 cpu-busy drop", st)
	}
	for _, nd := range []*Node{src, dst} {
		if st := nd.Stats(); st.Received != 10 || st.DeliveredLocal != 10 || st.ForwardedOut != 0 || len(st.Dropped) != 0 {
			t.Fatalf("%s stats = %+v, want 10 received and delivered", nd.Name, st)
		}
	}
}

func TestCPULegacyInputQueueDrains(t *testing.T) {
	n := NewNetwork(6)
	nodes := n.BuildChain(
		[]string{"h1", "r", "h2"},
		[]*CPUConfig{nil, {InputQueueCap: 2}},
		LinkConfig{},
	)
	r, h2 := nodes[1], nodes[2]
	var arrivals []float64
	h2.OnDeliver = map[Kind]func(*Packet){
		KindData: func(p *Packet) { arrivals = append(arrivals, n.Sim.Now()) },
	}
	n.Sim.Schedule(1.0, "occupy", func() { r.CPU.Occupy(0.5) })
	for _, at := range []float64{1.1, 1.2, 1.3} { // 2 queue, 1 drop
		at := at
		n.Sim.Schedule(at, "inject", func() {
			n.Inject(n.NewPacket(KindData, nodes[0].ID, h2.ID, 100))
		})
	}
	n.RunUntil(10)
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v, want 2 drained packets", arrivals)
	}
	for _, at := range arrivals {
		if math.Abs(at-1.5) > 1e-9 {
			t.Fatalf("drained at %v, want 1.5 (CPU idle)", at)
		}
	}
	if c := n.Counters(); c.Drops[DropCPUBusy] != 1 {
		t.Fatalf("drops = %+v", c.Drops)
	}
}

func TestCPUOccupySerializesFIFO(t *testing.T) {
	n := NewNetwork(8)
	r := n.NewNode("r", &CPUConfig{})
	done1 := r.CPU.Occupy(1)
	done2 := r.CPU.Occupy(2)
	if done1 != 1 || done2 != 3 {
		t.Fatalf("completion times %v, %v; want 1, 3", done1, done2)
	}
	var order []int
	r.OnWork = func(Work) { order = append(order, 3) }
	r.CPU.OccupyThen(1, Work{Kind: WorkPrepare})
	n.RunUntil(10)
	if r.CPU.Busy() {
		t.Fatal("CPU still busy after horizon")
	}
	if len(order) != 1 {
		t.Fatalf("OccupyThen callback ran %d times", len(order))
	}
}

func TestCPUOccupyNegativePanics(t *testing.T) {
	n := NewNetwork(9)
	r := n.NewNode("r", &CPUConfig{})
	defer func() {
		if recover() == nil {
			t.Fatal("negative occupy did not panic")
		}
	}()
	r.CPU.Occupy(-1)
}

func TestLANBroadcast(t *testing.T) {
	n := NewNetwork(10)
	var members []*Node
	for i := 0; i < 5; i++ {
		members = append(members, n.NewNode("m", nil))
	}
	lan := n.NewLAN(members, LANConfig{Delay: 0.001})
	got := make(map[NodeID]int)
	for _, m := range members {
		m := m
		m.OnRouting = func(p *Packet, _ Medium) { got[m.ID]++ }
	}
	pkt := n.NewPacket(KindRouting, members[0].ID, Broadcast, 512)
	members[0].SendOn(lan, Broadcast, pkt)
	n.RunUntil(1)
	if got[members[0].ID] != 0 {
		t.Fatal("sender received its own broadcast")
	}
	for _, m := range members[1:] {
		if got[m.ID] != 1 {
			t.Fatalf("member %v got %d copies, want 1", m, got[m.ID])
		}
	}
}

func TestLANUnicast(t *testing.T) {
	n := NewNetwork(11)
	a := n.NewNode("a", nil)
	b := n.NewNode("b", nil)
	c := n.NewNode("c", nil)
	lan := n.NewLAN([]*Node{a, b, c}, LANConfig{})
	gotB, gotC := 0, 0
	b.OnDeliver = map[Kind]func(*Packet){KindData: func(*Packet) { gotB++ }}
	c.OnDeliver = map[Kind]func(*Packet){KindData: func(*Packet) { gotC++ }}
	pkt := n.NewPacket(KindData, a.ID, b.ID, 100)
	a.SendOn(lan, b.ID, pkt)
	n.RunUntil(1)
	if gotB != 1 || gotC != 0 {
		t.Fatalf("unicast delivery b=%d c=%d, want 1,0", gotB, gotC)
	}
}

func TestLANUnknownUnicastDrops(t *testing.T) {
	n := NewNetwork(12)
	a := n.NewNode("a", nil)
	b := n.NewNode("b", nil)
	lan := n.NewLAN([]*Node{a, b}, LANConfig{})
	a.SendOn(lan, NodeID(99), n.NewPacket(KindData, a.ID, 99, 100))
	n.RunUntil(1)
	if c := n.Counters(); c.Drops[DropNoRoute] != 1 {
		t.Fatalf("drops = %+v", c.Drops)
	}
}

func TestLANSerializationQueues(t *testing.T) {
	n := NewNetwork(13)
	a := n.NewNode("a", nil)
	b := n.NewNode("b", nil)
	lan := n.NewLAN([]*Node{a, b}, LANConfig{Bandwidth: 8e3}) // 1 byte/ms
	var arrivals []float64
	b.OnDeliver = map[Kind]func(*Packet){
		KindData: func(p *Packet) { arrivals = append(arrivals, n.Sim.Now()) },
	}
	for i := 0; i < 3; i++ {
		a.SendOn(lan, b.ID, n.NewPacket(KindData, a.ID, b.ID, 10)) // 10 ms each
	}
	n.RunUntil(1)
	want := []float64{0.01, 0.02, 0.03}
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	for i, w := range want {
		if math.Abs(arrivals[i]-w) > 1e-9 {
			t.Fatalf("arrivals = %v, want %v", arrivals, want)
		}
	}
}

func TestLANValidation(t *testing.T) {
	n := NewNetwork(14)
	a := n.NewNode("a", nil)
	for _, f := range []func(){
		func() { n.NewLAN([]*Node{a}, LANConfig{}) },
		func() { n.NewLAN([]*Node{a, a}, LANConfig{}) },
		func() { n.NewLAN([]*Node{a, n.NewNode("b", nil)}, LANConfig{Delay: -1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid LAN construction did not panic")
				}
			}()
			f()
		}()
	}
}

func TestConnectValidation(t *testing.T) {
	n := NewNetwork(15)
	a := n.NewNode("a", nil)
	for _, f := range []func(){
		func() { n.Connect(a, a, LinkConfig{}) },
		func() { n.Connect(a, n.NewNode("b", nil), LinkConfig{Delay: -1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid Connect did not panic")
				}
			}()
			f()
		}()
	}
}

// TestConservationProperty: injected = delivered + dropped + in-flight,
// and after draining, in-flight = 0.
func TestConservationProperty(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		n := NewNetwork(seed)
		k := 3 + r.Intn(6)
		names := make([]string, k)
		cpus := make([]*CPUConfig, k)
		for i := range names {
			names[i] = "n"
			if i > 0 && i < k-1 && r.Bernoulli(0.5) {
				cpus[i] = &CPUConfig{InputQueueCap: r.Intn(4)}
			}
		}
		nodes := n.BuildChain(names, cpus, LinkConfig{
			Delay:     r.Uniform(0, 0.01),
			Bandwidth: 1e6,
			QueueCap:  1 + r.Intn(8),
		})
		// random CPU occupancy storms
		for i := 0; i < 5; i++ {
			at := r.Uniform(0, 1)
			for _, nd := range nodes {
				if nd.CPU != nil {
					nd := nd
					n.Sim.Schedule(at, "occupy", func() { nd.CPU.Occupy(0.2) })
				}
			}
		}
		total := 50 + r.Intn(100)
		for i := 0; i < total; i++ {
			at := r.Uniform(0, 2)
			n.Sim.Schedule(at, "inject", func() {
				n.Inject(n.NewPacket(KindData, nodes[0].ID, nodes[k-1].ID, 100+r.Intn(900)))
			})
		}
		n.RunUntil(100)
		c := n.Counters()
		return c.Injected == uint64(total) &&
			c.Delivered+c.TotalDropped() == c.Injected
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestKindStrings(t *testing.T) {
	if KindData.String() != "data" || KindRouting.String() != "routing" ||
		KindEchoRequest.String() != "echo-request" || KindEchoReply.String() != "echo-reply" ||
		Kind(9).String() == "" {
		t.Fatal("Kind.String mismatch")
	}
}

func TestNodeLookupPanics(t *testing.T) {
	n := NewNetwork(17)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown node lookup did not panic")
		}
	}()
	n.Node(5)
}

func TestForwardCostSerialDrain(t *testing.T) {
	n := NewNetwork(51)
	nodes := n.BuildChain(
		[]string{"h1", "r", "h2"},
		[]*CPUConfig{nil, {InputQueueCap: 8, ForwardCost: 0.05}},
		LinkConfig{},
	)
	r, h2 := nodes[1], nodes[2]
	var arrivals []float64
	h2.OnDeliver = map[Kind]func(*Packet){
		KindData: func(p *Packet) { arrivals = append(arrivals, n.Sim.Now()) },
	}
	// Stall the router 1.0..1.5 while three packets arrive and queue.
	n.Sim.Schedule(1.0, "occupy", func() { r.CPU.Occupy(0.5) })
	for _, at := range []float64{1.1, 1.2, 1.3} {
		at := at
		n.Sim.Schedule(at, "inject", func() {
			n.Inject(n.NewPacket(KindData, nodes[0].ID, h2.ID, 100))
		})
	}
	n.RunUntil(10)
	if len(arrivals) != 3 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	want := []float64{1.55, 1.60, 1.65} // serial 50 ms drain after the stall
	for i, w := range want {
		if math.Abs(arrivals[i]-w) > 1e-9 {
			t.Fatalf("arrivals = %v, want %v", arrivals, want)
		}
	}
}

func TestForwardCostZeroInstantDrain(t *testing.T) {
	n := NewNetwork(52)
	nodes := n.BuildChain(
		[]string{"h1", "r", "h2"},
		[]*CPUConfig{nil, {InputQueueCap: 8}},
		LinkConfig{},
	)
	r, h2 := nodes[1], nodes[2]
	var arrivals []float64
	h2.OnDeliver = map[Kind]func(*Packet){
		KindData: func(p *Packet) { arrivals = append(arrivals, n.Sim.Now()) },
	}
	n.Sim.Schedule(1.0, "occupy", func() { r.CPU.Occupy(0.5) })
	for _, at := range []float64{1.1, 1.2} {
		at := at
		n.Sim.Schedule(at, "inject", func() {
			n.Inject(n.NewPacket(KindData, nodes[0].ID, h2.ID, 100))
		})
	}
	n.RunUntil(10)
	for _, at := range arrivals {
		if math.Abs(at-1.5) > 1e-9 {
			t.Fatalf("instant drain expected at 1.5: %v", arrivals)
		}
	}
}

func TestForwardCostNegativePanics(t *testing.T) {
	n := NewNetwork(53)
	defer func() {
		if recover() == nil {
			t.Fatal("negative forward cost did not panic")
		}
	}()
	n.NewNode("r", &CPUConfig{ForwardCost: -1})
}

// TotalDropped sums drops across reasons.
func (c *Counters) TotalDropped() uint64 {
	var t uint64
	for _, v := range c.Drops {
		t += v
	}
	return t
}
