package workload

import (
	"math"
	"testing"

	"routesync/internal/jitter"
	"routesync/internal/netsim"
	"routesync/internal/routing"
)

// TracerouteResult is one probe's recorded forwarding path.
type TracerouteResult struct {
	// Reached tells whether the probe arrived at the destination.
	Reached bool
	// Hops is the path in arrival order (every node that handled the
	// probe, including the destination when reached).
	Hops []netsim.Hop
	// RTT is request + reply time when the destination echoed, else NaN.
	RTT float64
}

// Traceroute sends one record-route echo probe from src to dst, runs the
// simulation until the probe settles (or horizon), and returns the
// recorded path. It installs an echo responder on dst.
//
// Unlike real traceroute (TTL walking), the simulator can record the
// route directly; what the probe verifies is the live FIB state — the
// tests use it to show paths moving after failures and re-convergence.
func Traceroute(src, dst *netsim.Node, horizon float64) TracerouteResult {
	net := src.Net()
	InstallEchoResponder(dst)

	var res TracerouteResult
	res.RTT = math.NaN()
	if src.OnDeliver == nil {
		src.OnDeliver = make(map[netsim.Kind]func(*netsim.Packet))
	}
	sentAt := src.Now()
	src.OnDeliver[netsim.KindEchoReply] = func(pkt *netsim.Packet) {
		if pkt.Seq != -42 {
			return
		}
		// The node clock, not the network clock: in a partitioned run this
		// handler fires on src's logical process.
		res.RTT = src.Now() - sentAt
	}

	probe := net.NewPacket(netsim.KindEchoRequest, src.ID, dst.ID, 64)
	probe.Seq = -42
	probe.RecordRoute = true
	var gotThere bool
	prev := dst.OnDeliver[netsim.KindEchoRequest]
	dst.OnDeliver[netsim.KindEchoRequest] = func(pkt *netsim.Packet) {
		if pkt.Seq == -42 {
			gotThere = true
			res.Hops = append([]netsim.Hop(nil), pkt.Hops...)
		}
		if prev != nil {
			prev(pkt)
		}
	}
	net.Inject(probe)
	net.RunUntil(net.Now() + horizon)
	res.Reached = gotThere
	return res
}

func TestTracerouteRecordsChainPath(t *testing.T) {
	n := netsim.NewNetwork(31)
	nodes := n.BuildChain([]string{"src", "r1", "r2", "dst"}, nil, netsim.LinkConfig{Delay: 0.005})
	res := Traceroute(nodes[0], nodes[3], 10)
	if !res.Reached {
		t.Fatal("probe did not arrive")
	}
	want := []netsim.NodeID{nodes[1].ID, nodes[2].ID, nodes[3].ID}
	if len(res.Hops) != len(want) {
		t.Fatalf("hops = %+v, want %v", res.Hops, want)
	}
	for i, h := range res.Hops {
		if h.Node != want[i] {
			t.Fatalf("hop %d = %v, want %v", i, h.Node, want[i])
		}
		if i > 0 && h.At <= res.Hops[i-1].At {
			t.Fatalf("hop times not increasing: %+v", res.Hops)
		}
	}
	if math.Abs(res.RTT-0.03) > 1e-9 {
		t.Fatalf("RTT = %v, want 0.03", res.RTT)
	}
}

func TestTracerouteUnreachable(t *testing.T) {
	n := netsim.NewNetwork(32)
	a := n.NewNode("a", nil)
	b := n.NewNode("b", nil)
	n.Connect(a, b, netsim.LinkConfig{})
	// no routes installed
	res := Traceroute(a, b, 5)
	if res.Reached {
		t.Fatal("unreachable destination reported reached")
	}
	if !math.IsNaN(res.RTT) {
		t.Fatalf("RTT = %v, want NaN", res.RTT)
	}
}

// TestTraceroutePathMovesAfterReconvergence: a diamond topology where the
// short path fails; after the routing protocol re-converges, traceroute
// records the detour.
func TestTraceroutePathMovesAfterReconvergence(t *testing.T) {
	//      top
	//     /    \
	// src       dst      plus a 2-hop bottom path src—b1—b2—dst
	//
	// Hop-count metric prefers the top; when src—top fails the protocol
	// must converge onto the bottom.
	n := netsim.NewNetwork(33)
	src := n.NewNode("src", nil)
	top := n.NewNode("top", nil)
	b1 := n.NewNode("b1", nil)
	b2 := n.NewNode("b2", nil)
	dst := n.NewNode("dst", nil)
	lTop := n.Connect(src, top, netsim.LinkConfig{Delay: 0.001})
	n.Connect(top, dst, netsim.LinkConfig{Delay: 0.001})
	n.Connect(src, b1, netsim.LinkConfig{Delay: 0.001})
	n.Connect(b1, b2, netsim.LinkConfig{Delay: 0.001})
	n.Connect(b2, dst, netsim.LinkConfig{Delay: 0.001})

	prof := routing.RIP()
	prof.HoldDown = 0 // reconverge promptly in this tiny test
	cfg := routing.Config{Profile: prof, Jitter: jitter.HalfSpread{Tp: 30}, Seed: 3}
	for i, nd := range []*netsim.Node{src, top, b1, b2, dst} {
		ag := routing.NewAgent(nd, cfg)
		ag.Start(float64(i) + 1)
	}
	n.RunUntil(200)

	res := Traceroute(src, dst, 10)
	if !res.Reached || len(res.Hops) != 2 {
		t.Fatalf("pre-failure path = %+v, want via top (2 hops)", res.Hops)
	}
	if res.Hops[0].Node != top.ID {
		t.Fatalf("pre-failure first hop = %v, want top", res.Hops[0].Node)
	}

	lTop.SetDown(true)
	n.RunUntil(n.Sim.Now() + 400) // timeout + reconvergence
	res2 := Traceroute(src, dst, 10)
	if !res2.Reached {
		t.Fatal("post-failure probe did not arrive")
	}
	if len(res2.Hops) != 3 || res2.Hops[0].Node != b1.ID {
		t.Fatalf("post-failure path = %+v, want src→b1→b2→dst", res2.Hops)
	}
}
