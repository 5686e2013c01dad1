package routing

import (
	"math"
	"slices"
	"testing"

	"routesync/internal/jitter"
	"routesync/internal/netsim"
)

// lanOfRouters builds n routers on one zero-delay LAN, each running an
// agent with the given config; agents are started with the given offsets
// (cycled if shorter than n).
func lanOfRouters(n int, cfg Config, offsets []float64) (*netsim.Network, []*Agent) {
	net := netsim.NewNetwork(cfg.Seed + 1000)
	nodes := make([]*netsim.Node, n)
	for i := range nodes {
		nodes[i] = net.NewNode("r", &netsim.CPUConfig{})
	}
	net.NewLAN(nodes, netsim.LANConfig{})
	agents := make([]*Agent, n)
	for i, nd := range nodes {
		agents[i] = NewAgent(nd, cfg)
	}
	for i, a := range agents {
		off := 0.0
		if len(offsets) > 0 {
			off = offsets[i%len(offsets)]
		}
		a.Start(off)
	}
	return net, agents
}

func TestConvergenceOnLAN(t *testing.T) {
	cfg := Config{Profile: RIP(), Jitter: jitter.HalfSpread{Tp: 30}, Seed: 1}
	net, agents := lanOfRouters(5, cfg, []float64{1, 3, 5, 7, 9})
	net.RunUntil(120) // a few periods
	for i, a := range agents {
		for j := range agents {
			if i == j {
				continue
			}
			r := a.Table().Get(agents[j].Node().ID)
			if r == nil {
				t.Fatalf("router %d has no route to %d", i, j)
			}
			if r.Metric != 1 {
				t.Fatalf("router %d metric to %d = %d, want 1", i, j, r.Metric)
			}
		}
	}
}

// chainOfRouters builds r0 — r1 — ... — r(k−1) over point-to-point links.
func chainOfRouters(k int, cfg Config) (*netsim.Network, []*Agent, []*netsim.Link) {
	net := netsim.NewNetwork(cfg.Seed + 2000)
	nodes := make([]*netsim.Node, k)
	for i := range nodes {
		nodes[i] = net.NewNode("r", &netsim.CPUConfig{})
	}
	links := make([]*netsim.Link, k-1)
	for i := 0; i+1 < k; i++ {
		links[i] = net.Connect(nodes[i], nodes[i+1], netsim.LinkConfig{Delay: 0.001})
	}
	agents := make([]*Agent, k)
	for i, nd := range nodes {
		agents[i] = NewAgent(nd, cfg)
		agents[i].Start(float64(i) * 2)
	}
	return net, agents, links
}

func TestConvergenceOnChain(t *testing.T) {
	cfg := Config{Profile: RIP(), Jitter: jitter.HalfSpread{Tp: 30}, Seed: 2}
	net, agents, _ := chainOfRouters(5, cfg)
	net.RunUntil(300)
	// End router reaches the far end at metric 4 (hops).
	far := agents[4].Node().ID
	r := agents[0].Table().Get(far)
	if r == nil || r.Metric != 4 {
		t.Fatalf("r0 route to r4 = %+v, want metric 4", r)
	}
	// And the FIB actually forwards: send a data packet end to end.
	got := 0
	agents[4].Node().OnDeliver = map[netsim.Kind]func(*netsim.Packet){
		netsim.KindData: func(*netsim.Packet) { got++ },
	}
	net.Inject(net.NewPacket(netsim.KindData, agents[0].Node().ID, far, 100))
	net.RunUntil(301)
	if got != 1 {
		t.Fatal("data packet not delivered over protocol-built FIB")
	}
}

func TestLinkFailureConvergence(t *testing.T) {
	cfg := Config{Profile: RIP(), Jitter: jitter.HalfSpread{Tp: 30}, Seed: 3}
	net, agents, links := chainOfRouters(4, cfg)
	net.RunUntil(300)
	far := agents[3].Node().ID
	if r := agents[0].Table().Get(far); r == nil || r.Metric != 3 {
		t.Fatalf("pre-failure route = %+v", r)
	}
	// Fail the last link; after timeout sweeps the route ages out.
	links[2].SetDown(true)
	net.RunUntil(300 + 6*30 + 90) // timeout factor 6 + slack
	r := agents[0].Table().Get(far)
	if r != nil && r.Metric < 16 {
		t.Fatalf("route to unreachable dest still alive: %+v", r)
	}
	if _, ok := agents[0].Node().Route(far); ok {
		t.Fatal("FIB entry survived unreachability")
	}
	// Much later the entry is garbage collected entirely.
	net.RunUntil(300 + 10*30 + 300)
	if agents[0].Table().Get(far) != nil {
		t.Fatal("route not garbage collected")
	}
	// Triggered updates were sent along the way.
	var trig uint64
	for _, a := range agents {
		trig += a.Stats().TriggeredSent
	}
	if trig == 0 {
		t.Fatal("no triggered updates after a link failure")
	}
}

func TestLinkRestoreReconverges(t *testing.T) {
	cfg := Config{Profile: RIP(), Jitter: jitter.HalfSpread{Tp: 30}, Seed: 4}
	net, agents, links := chainOfRouters(3, cfg)
	net.RunUntil(200)
	far := agents[2].Node().ID
	links[1].SetDown(true)
	net.RunUntil(200 + 300)
	links[1].SetDown(false)
	net.RunUntil(200 + 300 + 150)
	r := agents[0].Table().Get(far)
	if r == nil || r.Metric != 2 {
		t.Fatalf("route after restore = %+v, want metric 2", r)
	}
}

// TestLockStepCoupling is the paper's mechanism on the packet substrate:
// two routers with deterministic timers and overlapping busy periods fall
// into lock-step, resetting their timers at the same instant.
func TestLockStepCoupling(t *testing.T) {
	cfg := Config{
		Profile:              RIP(),
		Jitter:               jitter.None{Tp: 30},
		Costs:                Costs{MinPrepare: 0.1, MinProcess: 0.1},
		TriggeredResetsTimer: true,
		Seed:                 5,
	}
	sends := make(map[int][]float64)
	net, agents := lanOfRouters(2, cfg, []float64{1.0, 1.05})
	for i, a := range agents {
		i := i
		a.OnSend = func(at float64, trig bool) {
			if !trig {
				sends[i] = append(sends[i], at)
			}
		}
	}
	net.RunUntil(400)
	s0, s1 := sends[0], sends[1]
	if len(s0) < 5 || len(s1) < 5 {
		t.Fatalf("too few sends: %d/%d", len(s0), len(s1))
	}
	// First sends differ by the start offsets.
	if math.Abs((s1[0]-s0[0])-0.05) > 1e-9 {
		t.Fatalf("first send gap = %v, want 0.05", s1[0]-s0[0])
	}
	// From the second round on, sends coincide exactly: both routers
	// reset their timers at the same busy-window end.
	for i := 1; i < 5; i++ {
		if s0[i] != s1[i] {
			t.Fatalf("round %d sends differ: %v vs %v (not lock-step)", i, s0[i], s1[i])
		}
	}
}

// TestTriggeredWave: a triggered update from one router provokes
// triggered updates from neighbors whose tables changed (§3: "a wave of
// triggered updates").
func TestTriggeredWave(t *testing.T) {
	cfg := Config{
		Profile:              RIP(),
		Jitter:               jitter.HalfSpread{Tp: 30},
		TriggeredResetsTimer: true,
		Seed:                 7,
	}
	net, agents, links := chainOfRouters(5, cfg)
	net.RunUntil(300)
	before := make([]uint64, len(agents))
	for i, a := range agents {
		before[i] = a.Stats().TriggeredSent
	}
	// Fail an interior link; the timeout sweep marks routes unreachable
	// and triggers a wave.
	links[1].SetDown(true)
	net.RunUntil(300 + 400)
	waved := 0
	for i, a := range agents {
		if a.Stats().TriggeredSent > before[i] {
			waved++
		}
	}
	if waved < 2 {
		t.Fatalf("only %d routers sent triggered updates; want a wave", waved)
	}
}

func TestAgentStatsAndMalformed(t *testing.T) {
	cfg := Config{Profile: RIP(), Jitter: jitter.HalfSpread{Tp: 30}, Seed: 8}
	net, agents := lanOfRouters(2, cfg, []float64{0.5, 1})
	net.RunUntil(100)
	st := agents[0].Stats()
	if st.PeriodicSent == 0 || st.Received == 0 || st.TimerResets == 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Hand-deliver a garbage routing packet.
	pkt := net.NewPacket(netsim.KindRouting, 99, netsim.Broadcast, 10)
	pkt.Payload = []byte{1, 2, 3}
	agents[0].Node().OnRouting(pkt, nil)
	if agents[0].Stats().Malformed != 1 {
		t.Fatal("malformed packet not counted")
	}
}

func TestAgentConfigValidation(t *testing.T) {
	net := netsim.NewNetwork(1)
	nd := net.NewNode("r", nil)
	bad := []Config{
		{Profile: Profile{Name: "bad", Period: 0, Infinity: 16, TimeoutFactor: 3, GCFactor: 6}},
		{Profile: RIP(), Costs: Costs{MinPrepare: -1}},
		{Profile: RIP(), ExtraRoutes: -1},
		{Profile: RIP(), ExtraRoutes: MaxEntries},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			NewAgent(nd, cfg)
		}()
	}
}

func TestAgentNegativeStartPanics(t *testing.T) {
	net := netsim.NewNetwork(1)
	nd := net.NewNode("r", nil)
	a := NewAgent(nd, Config{Profile: RIP()})
	defer func() {
		if recover() == nil {
			t.Fatal("negative start offset did not panic")
		}
	}()
	a.Start(-1)
}

func TestExtraRoutesInflateUpdates(t *testing.T) {
	cfg := Config{Profile: IGRP(), Jitter: jitter.HalfSpread{Tp: 90}, ExtraRoutes: 300, Seed: 9}
	var sizes []int
	net := netsim.NewNetwork(10)
	a := net.NewNode("a", nil)
	b := net.NewNode("b", nil)
	net.NewLAN([]*netsim.Node{a, b}, netsim.LANConfig{})
	agA := NewAgent(a, cfg)
	agB := NewAgent(b, cfg)
	_ = agB
	agA.Start(1)
	agB.Start(2)
	b.OnRouting = func(p *netsim.Packet, _ netsim.Medium) {
		sizes = append(sizes, len(p.Payload))
	}
	net.RunUntil(100)
	if len(sizes) == 0 {
		t.Fatal("no updates observed")
	}
	if sizes[0] < headerLen+entryLen*300 {
		t.Fatalf("update payload %d bytes, want >= %d (300 synthetic routes)", sizes[0], headerLen+entryLen*300)
	}
}

// TestSyntheticRoutesDoNotPollute: synthetic padding routes must never be
// installed as usable routes by receivers.
func TestSyntheticRoutesDoNotPollute(t *testing.T) {
	cfg := Config{Profile: RIP(), Jitter: jitter.HalfSpread{Tp: 30}, ExtraRoutes: 10, Seed: 11}
	net, agents := lanOfRouters(2, cfg, []float64{1, 2})
	net.RunUntil(100)
	for _, r := range agents[0].Table().Routes() {
		if r.Dest >= 1<<20 && r.Metric < agents[0].Table().Infinity() {
			t.Fatalf("synthetic route installed as reachable: %+v", r)
		}
	}
}

func TestAgentStop(t *testing.T) {
	cfg := Config{Profile: RIP(), Jitter: jitter.HalfSpread{Tp: 30}, Seed: 41}
	net, agents := lanOfRouters(3, cfg, []float64{1, 2, 3})
	net.RunUntil(100)
	stopped := agents[0]
	sentBefore := stopped.Stats().PeriodicSent
	stopped.k.Stop()
	net.RunUntil(100 + 120)
	if got := stopped.Stats().PeriodicSent; got != sentBefore {
		t.Fatalf("stopped agent kept sending: %d -> %d", sentBefore, got)
	}
	// Neighbors age the dead router's routes out.
	net.RunUntil(100 + 120 + 6*30 + 60)
	dead := stopped.Node().ID
	r := agents[1].Table().Get(dead)
	if r != nil && r.Metric < 16 {
		t.Fatalf("dead router still routable: %+v", r)
	}
}

// fibPath walks the installed FIBs from src toward dst and returns the
// nodes after src, or nil when some hop has no route.
func fibPath(net *netsim.Network, src, dst netsim.NodeID) []netsim.NodeID {
	var path []netsim.NodeID
	for cur := src; cur != dst; {
		eg, ok := net.Node(cur).Route(dst)
		if !ok || len(path) > net.NumNodes() {
			return nil
		}
		cur = eg.NextHop
		path = append(path, cur)
	}
	return path
}

// TestPathMovesAfterReconvergence: a diamond whose short path fails;
// after the protocol re-converges the FIBs route over the detour and a
// data packet arrives one hop later than before.
func TestPathMovesAfterReconvergence(t *testing.T) {
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

	prof := RIP()
	prof.HoldDown = 0 // reconverge promptly in this tiny test
	cfg := Config{Profile: prof, Jitter: jitter.HalfSpread{Tp: 30}, Seed: 3}
	for i, nd := range []*netsim.Node{src, top, b1, b2, dst} {
		ag := NewAgent(nd, cfg)
		ag.Start(float64(i) + 1)
	}
	// transit sends one data packet and returns its src→dst transit time
	// (NaN when it is not delivered).
	transit := func() float64 {
		sent, got := n.Now(), math.NaN()
		dst.OnDeliver = map[netsim.Kind]func(*netsim.Packet){
			netsim.KindData: func(*netsim.Packet) { got = dst.Now() - sent },
		}
		n.Inject(n.NewPacket(netsim.KindData, src.ID, dst.ID, 64))
		n.RunUntil(sent + 10)
		return got
	}
	n.RunUntil(200)

	if p := fibPath(n, src.ID, dst.ID); len(p) != 2 || p[0] != top.ID {
		t.Fatalf("pre-failure path = %v, want src→top→dst", p)
	}
	if d := transit(); math.Abs(d-0.002) > 1e-9 {
		t.Fatalf("pre-failure transit = %v, want 0.002 (2 hops)", d)
	}

	lTop.SetDown(true)
	n.RunUntil(n.Now() + 400) // timeout + reconvergence
	want := []netsim.NodeID{b1.ID, b2.ID, dst.ID}
	if p := fibPath(n, src.ID, dst.ID); !slices.Equal(p, want) {
		t.Fatalf("post-failure path = %v, want src→b1→b2→dst %v", p, want)
	}
	if d := transit(); math.Abs(d-0.003) > 1e-9 {
		t.Fatalf("post-failure transit = %v, want 0.003 (3 hops)", d)
	}
}

// TestLargeTableConvergesNeighbor: a router whose table holds more than
// MaxEntries destinations sends each update as ⌈n/MaxEntries⌉ messages
// back to back, still counted as one update, and its neighbor learns
// every destination from them.
func TestLargeTableConvergesNeighbor(t *testing.T) {
	const dests = MaxEntries + 1000
	net := netsim.NewNetwork(1)
	far := net.NewNode("far", nil) // the destinations' advertiser; runs no agent
	hub := net.NewNode("hub", nil)
	leaf := net.NewNode("leaf", nil)
	toFar := net.Connect(far, hub, netsim.LinkConfig{Delay: 0.001})
	net.Connect(hub, leaf, netsim.LinkConfig{Delay: 0.001})
	cfg := Config{Profile: RIP(), Seed: 1}
	h, l := NewAgent(hub, cfg), NewAgent(leaf, cfg)
	// The hub has learned the destinations from far at one hop, in
	// messages EncodeInto accepts.
	const first = netsim.NodeID(100)
	for lo := 0; lo < dests; lo += MaxEntries {
		msg := Message{Router: far.ID}
		for d := lo; d < min(dests, lo+MaxEntries); d++ {
			msg.Entries = append(msg.Entries, Entry{Dest: first + netsim.NodeID(d), Metric: 1})
		}
		applyMsg(h.Table(), msg, toFar, 0, 1)
	}
	h.Start(1)
	l.Start(2)
	net.RunUntil(10)

	// The hub's update carries its own route, far's and the destinations.
	if hs, ls := h.Stats(), l.Stats(); hs.PeriodicSent != 1 || ls.Received != 2 || ls.Malformed != 0 {
		t.Fatalf("hub sent %d updates, leaf received %d messages (%d malformed); want 1 update in 2 messages",
			hs.PeriodicSent, ls.Received, ls.Malformed)
	}
	if got := l.Table().Len(); got != dests+3 {
		t.Fatalf("leaf table holds %d routes, want %d", got, dests+3)
	}
	for d := first; d < first+dests; d++ {
		r := l.Table().Get(d)
		if r == nil || r.Metric != 3 || r.NextHop != hub.ID {
			t.Fatalf("leaf route to %d = %+v, want metric 3 via hub %d", d, r, hub.ID)
		}
	}
}
