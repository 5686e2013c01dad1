package linkstate

import (
	"encoding/binary"
	"errors"
	"sort"
	"testing"
	"testing/quick"

	"routesync/internal/jitter"
	"routesync/internal/netsim"
	"routesync/internal/rng"
)

// lsdbOf returns the LSAs a holds, sorted by origin.
func lsdbOf(a *Agent) []LSA {
	out := make([]LSA, 0, len(a.lsdb))
	for _, e := range a.lsdb {
		out = append(out, e.lsa)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Origin < out[j].Origin })
	return out
}

// fibHops follows the installed FIB next hops from src toward dest and
// returns the hop count, or -1 when some node on the way has no route.
// A forwarding loop fails the test.
func fibHops(t *testing.T, net *netsim.Network, src, dest netsim.NodeID) int {
	t.Helper()
	hops := 0
	for cur := src; cur != dest; hops++ {
		if hops > net.NumNodes() {
			t.Fatalf("forwarding loop from %d toward %d", src, dest)
		}
		eg, ok := net.Node(cur).Route(dest)
		if !ok {
			return -1
		}
		cur = eg.NextHop
	}
	return hops
}

func TestWireRoundTrip(t *testing.T) {
	l := LSA{Origin: 7, Seq: 42, Neighbors: []netsim.NodeID{1, 3, 9}}
	buf, err := EncodeInto(nil, l)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != headerLen+neighLen*3 {
		t.Fatalf("size %d, want %d", len(buf), headerLen+neighLen*3)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Origin != 7 || got.Seq != 42 || len(got.Neighbors) != 3 || got.Neighbors[2] != 9 {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestWireErrors(t *testing.T) {
	good, _ := EncodeInto(nil, LSA{Origin: 1, Neighbors: []netsim.NodeID{2}})
	if _, err := Decode(good[:4]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Decode(good[:len(good)-1]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v", err)
	}
	bad := append([]byte(nil), good...)
	bad[0] = 0
	if _, err := Decode(bad); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v", err)
	}
	badV := append([]byte(nil), good...)
	badV[2] = 9
	if _, err := Decode(badV); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v", err)
	}
	if _, err := EncodeInto(nil, LSA{Neighbors: make([]netsim.NodeID, MaxNeighbors+1)}); !errors.Is(err, ErrTooMany) {
		t.Fatalf("err = %v", err)
	}
	// A count EncodeInto would refuse is refused on the wire too, before the
	// length check.
	tooMany := append([]byte(nil), good...)
	binary.BigEndian.PutUint16(tooMany[12:], MaxNeighbors+1)
	if _, err := Decode(tooMany); !errors.Is(err, ErrTooMany) {
		t.Fatalf("err = %v", err)
	}
	// EncodeInto zeroes both reserved fields; a frame that sets either is
	// not one it could have produced.
	for _, off := range []int{3, 14, 15} {
		res := append([]byte(nil), good...)
		res[off] = 1
		if _, err := Decode(res); !errors.Is(err, ErrReserved) {
			t.Fatalf("reserved byte %d: err = %v", off, err)
		}
	}
}

func TestWireGarbageNeverPanics(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		buf := make([]byte, r.Intn(100))
		for i := range buf {
			buf[i] = byte(r.Intn(256))
		}
		_, _ = Decode(buf)
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// lsChain builds a chain of link-state routers and starts them staggered.
func lsChain(k int, seed int64) (*netsim.Network, []*Agent) {
	net := netsim.NewNetwork(seed)
	nodes := make([]*netsim.Node, k)
	for i := range nodes {
		nodes[i] = net.NewNode("ls", nil)
	}
	for i := 0; i+1 < k; i++ {
		net.Connect(nodes[i], nodes[i+1], netsim.LinkConfig{Delay: 0.001})
	}
	agents := make([]*Agent, k)
	for i, nd := range nodes {
		agents[i] = NewAgent(nd, Config{
			RefreshPeriod: 30,
			Jitter:        jitter.HalfSpread{Tp: 30},
			Seed:          seed,
		})
		agents[i].Start(float64(i) + 1)
	}
	return net, agents
}

func TestFloodingFillsLSDBs(t *testing.T) {
	net, agents := lsChain(5, 1)
	net.RunUntil(60)
	for i, a := range agents {
		if got := len(a.lsdb); got != 5 {
			t.Fatalf("agent %d LSDB has %d origins, want 5", i, got)
		}
	}
}

func TestSPFDistances(t *testing.T) {
	net, agents := lsChain(5, 2)
	net.RunUntil(60)
	for i, a := range agents {
		for j, b := range agents {
			want := j - i
			if want < 0 {
				want = -want
			}
			if got := fibHops(t, net, a.Node().ID, b.Node().ID); got != want {
				t.Fatalf("agent %d distance to %d = %d, want %d", i, j, got, want)
			}
		}
	}
}

// TestRecomputeAllocs: once the LSDB has settled, an SPF rerun that
// reprograms the FIB and withdraws a route it no longer reaches
// allocates nothing, so neither the withdraw pass nor SPF's closures
// escape to the heap.
func TestRecomputeAllocs(t *testing.T) {
	net, agents := lsChain(5, 2)
	net.RunUntil(60)
	a := agents[2]
	node := a.Node()
	hop := node.MediumAt(0)
	run := func() {
		node.SetRoute(99, hop, agents[1].Node().ID)
		a.recompute()
	}
	run()
	if _, ok := node.Route(99); ok {
		t.Fatal("recompute kept a route to a destination SPF does not reach")
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("recompute: %v allocs/op, want 0", allocs)
	}
}

func TestFIBForwardsEndToEnd(t *testing.T) {
	net, agents := lsChain(4, 3)
	net.RunUntil(60)
	got := 0
	far := agents[3].Node()
	far.OnDeliver = map[netsim.Kind]func(*netsim.Packet){
		netsim.KindData: func(*netsim.Packet) { got++ },
	}
	net.Inject(net.NewPacket(netsim.KindData, agents[0].Node().ID, far.ID, 100))
	net.RunUntil(61)
	if got != 1 {
		t.Fatal("packet not delivered over link-state FIB")
	}
}

// TestFloodingTerminates: sequence-number dedup bounds the flooding work;
// a ring topology (a flooding loop risk) must not melt down.
func TestFloodingTerminates(t *testing.T) {
	net := netsim.NewNetwork(4)
	const k = 6
	nodes := make([]*netsim.Node, k)
	for i := range nodes {
		nodes[i] = net.NewNode("ring", nil)
	}
	for i := 0; i < k; i++ {
		net.Connect(nodes[i], nodes[(i+1)%k], netsim.LinkConfig{Delay: 0.001})
	}
	agents := make([]*Agent, k)
	for i, nd := range nodes {
		agents[i] = NewAgent(nd, Config{RefreshPeriod: 30, Jitter: jitter.HalfSpread{Tp: 30}, Seed: 4})
		agents[i].Start(float64(i) + 1)
	}
	net.RunUntil(65) // ~2 refresh rounds
	// Each origination floods at most once per agent per link direction:
	// with k=6 agents and 2 rounds, the total flooded count is bounded.
	// Every transmission crosses a lossless point-to-point link, so the
	// routing packets the nodes took in count them.
	var flooded uint64
	for _, nd := range nodes {
		flooded += nd.Stats().RoutingIn
	}
	// 2 rounds × 6 LSAs; each LSA crosses each agent once (re-flooding on
	// one of 2 media) plus origination on 2; generous bound: 6 LSAs × 12
	// transmissions × 2 rounds (plus the initial round's extra chatter).
	if flooded == 0 || flooded > 400 {
		t.Fatalf("flooding did not terminate: %d transmissions", flooded)
	}
	// And everyone converged on the ring distances.
	if d := fibHops(t, net, nodes[0].ID, nodes[3].ID); d != 3 {
		t.Fatalf("ring distance = %d, want 3", d)
	}
}

// TestConvergesOnRandomGraphs: the installed FIBs forward along shortest
// paths — their hop counts match BFS ground truth.
func TestConvergesOnRandomGraphs(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		net := netsim.NewNetwork(seed)
		count := 4 + r.Intn(7)
		nodes, _ := net.BuildRandomGraph(r, count, r.Intn(count), nil, netsim.LinkConfig{Delay: 0.001})
		agents := make([]*Agent, count)
		for i, nd := range nodes {
			agents[i] = NewAgent(nd, Config{RefreshPeriod: 30, Jitter: jitter.HalfSpread{Tp: 30}, Seed: seed})
			agents[i].Start(r.Uniform(0, 30))
		}
		net.RunUntil(90)
		for i, a := range agents {
			want := net.HopDistances(nodes[i])
			for j, other := range nodes {
				if i == j {
					continue
				}
				if got := fibHops(t, net, a.Node().ID, other.ID); got != want[other.ID] {
					t.Logf("seed %d: %d→%d = %d, BFS %d", seed, i, j, got, want[other.ID])
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// TestDeadRouterAgesOut: stop one router; its LSA ages out of the others'
// databases and its routes disappear.
func TestDeadRouterAgesOut(t *testing.T) {
	net, agents := lsChain(3, 5)
	net.RunUntil(60)
	dead := agents[2]
	deadID := dead.Node().ID
	dead.k.Stop()
	// MaxAge = 4 × 30 = 120 s after the last refresh.
	net.RunUntil(60 + 4*30 + 90)
	if d := fibHops(t, net, agents[0].Node().ID, deadID); d != -1 {
		t.Fatalf("dead router still reachable at distance %d", d)
	}
	if _, ok := agents[0].Node().Route(deadID); ok {
		t.Fatal("FIB entry for dead router survived")
	}
	if _, ok := agents[0].lsdb[deadID]; ok {
		t.Fatal("dead router's LSA survived MaxAge in the LSDB")
	}
}

// TestLinkFailureReroutes: a diamond reroutes around a dead link after
// the next refresh announces the new adjacency.
func TestLinkFailureReroutes(t *testing.T) {
	net := netsim.NewNetwork(6)
	src := net.NewNode("src", nil)
	top := net.NewNode("top", nil)
	b1 := net.NewNode("b1", nil)
	dst := net.NewNode("dst", nil)
	lTop := net.Connect(src, top, netsim.LinkConfig{Delay: 0.001})
	net.Connect(top, dst, netsim.LinkConfig{Delay: 0.001})
	net.Connect(src, b1, netsim.LinkConfig{Delay: 0.001})
	net.Connect(b1, dst, netsim.LinkConfig{Delay: 0.001})
	var agents []*Agent
	for i, nd := range []*netsim.Node{src, top, b1, dst} {
		a := NewAgent(nd, Config{RefreshPeriod: 30, Jitter: jitter.HalfSpread{Tp: 30}, Seed: 6})
		a.Start(float64(i) + 1)
		agents = append(agents, a)
	}
	net.RunUntil(60)
	if d := fibHops(t, net, src.ID, dst.ID); d != 2 {
		t.Fatalf("pre-failure distance = %d", d)
	}
	lTop.SetDown(true)
	// The endpoints notice at their next refresh (adjacency re-read) and
	// flood updated LSAs.
	net.RunUntil(60 + 90)
	if d := fibHops(t, net, src.ID, dst.ID); d != 2 {
		t.Fatalf("post-failure distance = %d, want 2 via b1", d)
	}
	if eg, _ := net.Node(src.ID).Route(dst.ID); eg.NextHop != b1.ID {
		t.Fatalf("post-failure next hop = %v, want b1 (%v)", eg.NextHop, b1.ID)
	}
	// And data actually flows via the bottom path.
	got := 0
	dst.OnDeliver = map[netsim.Kind]func(*netsim.Packet){
		netsim.KindData: func(*netsim.Packet) { got++ },
	}
	net.Inject(net.NewPacket(netsim.KindData, src.ID, dst.ID, 64))
	net.RunUntil(net.Sim.Now() + 5)
	if got != 1 {
		t.Fatal("packet not delivered after reroute")
	}
}

func TestAgentValidation(t *testing.T) {
	net := netsim.NewNetwork(7)
	nd := net.NewNode("x", nil)
	for _, f := range []func(){
		func() { NewAgent(nd, Config{RefreshPeriod: 0}) },
		func() { NewAgent(nd, Config{RefreshPeriod: 30, PrepareCost: -1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
	a := NewAgent(nd, Config{RefreshPeriod: 30})
	defer func() {
		if recover() == nil {
			t.Error("negative start offset did not panic")
		}
	}()
	a.Start(-1)
}

// TestLSDBsConvergeIdentically: after a quiet period every router holds
// the same database — flooding is eventually consistent.
func TestLSDBsConvergeIdentically(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		net := netsim.NewNetwork(seed)
		count := 3 + r.Intn(6)
		nodes, _ := net.BuildRandomGraph(r, count, r.Intn(count), nil, netsim.LinkConfig{Delay: 0.001})
		agents := make([]*Agent, count)
		for i, nd := range nodes {
			agents[i] = NewAgent(nd, Config{RefreshPeriod: 30, Jitter: jitter.HalfSpread{Tp: 30}, Seed: seed})
			agents[i].Start(r.Uniform(0, 30))
		}
		net.RunUntil(120)
		ref := lsdbOf(agents[0])
		if len(ref) != count {
			return false
		}
		for _, a := range agents[1:] {
			db := lsdbOf(a)
			if len(db) != len(ref) {
				return false
			}
			for i := range db {
				if db[i].Origin != ref[i].Origin {
					return false
				}
				if len(db[i].Neighbors) != len(ref[i].Neighbors) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}
