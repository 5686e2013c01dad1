package pathvector

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"routesync/internal/des"
	"routesync/internal/jitter"
	"routesync/internal/netsim"
)

// AnnounceLocal re-originates a withdrawn prefix.
func (a *Agent) AnnounceLocal() {
	if a.selfIdx < 0 || a.localUp {
		return
	}
	a.localUp = true
	if a.reselect(a.selfIdx, -1) {
		a.flushIdlePeers()
	}
}

// BestPath appends the current best AS path toward origin (first hop
// first, origin last) onto dst and returns it; self-originated and
// unreachable prefixes append nothing.
func (a *Agent) BestPath(dst []netsim.NodeID, origin netsim.NodeID) []netsim.NodeID {
	o := a.origins.index(origin)
	if o < 0 {
		return dst
	}
	for _, h := range a.bestPathFor(o) {
		dst = append(dst, netsim.NodeID(h))
	}
	return dst
}

// WireSize returns the encoded byte length of a message carrying the
// given advertisement path lengths and nWithdraw withdrawals.
func WireSize(pathLens []int, nWithdraw int) int {
	n := headerLen + nWithdraw*entryFixed
	for _, pl := range pathLens {
		n += entryFixed + hopLen*pl
	}
	return n
}

// buildChain wires AS0 — AS1 — ... — AS(k−1) over point-to-point links
// with AS(i+1) the customer of AS(i) — a provider chain hanging off
// AS0 — all ASes originating, and returns the network and agents.
func buildChain(t *testing.T, k int, cfg Config) (*netsim.Network, []*Agent) {
	t.Helper()
	net := netsim.NewNetwork(cfg.Seed + 4000)
	nodes := make([]*netsim.Node, k)
	for i := range nodes {
		nodes[i] = net.NewNode("as", &netsim.CPUConfig{})
	}
	links := make([]*netsim.Link, k-1)
	for i := 0; i+1 < k; i++ {
		links[i] = net.Connect(nodes[i], nodes[i+1], netsim.LinkConfig{Delay: 0.01, Bandwidth: 10e6, QueueCap: 64})
	}
	ids := make([]netsim.NodeID, k)
	for i, nd := range nodes {
		ids[i] = nd.ID
	}
	origins := NewOriginSet(ids)
	agents := make([]*Agent, k)
	for i, nd := range nodes {
		c := cfg
		c.Origins = origins
		// AS(i+1) is AS(i)'s customer: downstream links face customers,
		// upstream links face providers.
		if i > 0 {
			c.Peers = append(c.Peers, PeerConfig{Link: links[i-1], Rel: RelProvider})
		}
		if i+1 < k {
			c.Peers = append(c.Peers, PeerConfig{Link: links[i], Rel: RelCustomer})
		}
		c.Seed = cfg.Seed*31 + int64(nd.ID)
		agents[i] = NewAgent(nd, c)
	}
	for i, a := range agents {
		a.Start(0.5 + 0.1*float64(i))
	}
	return net, agents
}

func defaultCfg() Config {
	return Config{
		RefreshPeriod: 30,
		Jitter:        jitter.HalfSpread{Tp: 30},
		PrepareCost:   0.002,
		ProcessCost:   0.001,
		Seed:          7,
	}
}

func TestChainConvergence(t *testing.T) {
	net, agents := buildChain(t, 6, defaultCfg())
	net.RunUntil(120)
	for i, a := range agents {
		for j, b := range agents {
			ok, plen := a.Reachable(b.Node().ID)
			if !ok {
				t.Fatalf("AS%d cannot reach AS%d", i, j)
			}
			want := i - j
			if want < 0 {
				want = -want
			}
			if plen != want {
				t.Fatalf("AS%d path length to AS%d = %d, want %d", i, j, plen, want)
			}
		}
	}
	// The best path toward the far end walks the chain.
	path := agents[0].BestPath(nil, agents[5].Node().ID)
	for h, id := range path {
		if id != agents[h+1].Node().ID {
			t.Fatalf("hop %d of AS0→AS5 path = %d, want %d", h, id, agents[h+1].Node().ID)
		}
	}
}

// TestGaoRexfordValley checks that peer-learned routes are not exported
// to peers or providers: two stubs hanging off two peered cores must
// reach each other through the peering, but a third core peered with
// both must not receive transit routes across the valley.
func TestGaoRexfordValley(t *testing.T) {
	cfg := defaultCfg()
	net := netsim.NewNetwork(99)
	lc := netsim.LinkConfig{Delay: 0.01, Bandwidth: 10e6, QueueCap: 64}
	coreA := net.NewNode("coreA", &netsim.CPUConfig{})
	coreB := net.NewNode("coreB", &netsim.CPUConfig{})
	coreC := net.NewNode("coreC", &netsim.CPUConfig{})
	stubA := net.NewNode("stubA", &netsim.CPUConfig{})
	stubB := net.NewNode("stubB", &netsim.CPUConfig{})
	lAB := net.Connect(coreA, coreB, lc) // peer—peer
	lAC := net.Connect(coreA, coreC, lc) // peer—peer
	lBC := net.Connect(coreB, coreC, lc) // peer—peer
	lAs := net.Connect(coreA, stubA, lc) // provider—customer
	lBs := net.Connect(coreB, stubB, lc) // provider—customer

	origins := NewOriginSet([]netsim.NodeID{stubA.ID, stubB.ID})
	mk := func(nd *netsim.Node, peers []PeerConfig, seed int64) *Agent {
		c := cfg
		c.Origins = origins
		c.Peers = peers
		c.Seed = seed
		return NewAgent(nd, c)
	}
	agents := []*Agent{
		mk(coreA, []PeerConfig{{Link: lAB, Rel: RelPeer}, {Link: lAC, Rel: RelPeer}, {Link: lAs, Rel: RelCustomer}}, 1),
		mk(coreB, []PeerConfig{{Link: lAB, Rel: RelPeer}, {Link: lBC, Rel: RelPeer}, {Link: lBs, Rel: RelCustomer}}, 2),
		mk(coreC, []PeerConfig{{Link: lAC, Rel: RelPeer}, {Link: lBC, Rel: RelPeer}}, 3),
		mk(stubA, []PeerConfig{{Link: lAs, Rel: RelProvider}}, 4),
		mk(stubB, []PeerConfig{{Link: lBs, Rel: RelProvider}}, 5),
	}
	for i, a := range agents {
		a.Start(0.5 + 0.1*float64(i))
	}
	net.RunUntil(120)

	// The stubs reach each other via the peering (stub → provider → peer
	// provider → stub: 3 AS hops).
	sA, sB := agents[3], agents[4]
	if ok, plen := sA.Reachable(stubB.ID); !ok || plen != 3 {
		t.Fatalf("stubA → stubB reachable=%v len=%d, want true/3", ok, plen)
	}
	if ok, plen := sB.Reachable(stubA.ID); !ok || plen != 3 {
		t.Fatalf("stubB → stubA reachable=%v len=%d, want true/3", ok, plen)
	}
	// Core C hears both stubs from its peers A and B — customer routes
	// export to peers — but must never have been offered the valley path
	// (e.g. stubA via B: A would have to export a peer-learned route to
	// peer B first). Check C's best paths go straight through the owning
	// provider.
	cC := agents[2]
	pA := cC.BestPath(nil, stubA.ID)
	if len(pA) != 2 || pA[0] != coreA.ID {
		t.Fatalf("coreC best path to stubA = %v, want [coreA stubA]", pA)
	}
	pB := cC.BestPath(nil, stubB.ID)
	if len(pB) != 2 || pB[0] != coreB.ID {
		t.Fatalf("coreC best path to stubB = %v, want [coreB stubB]", pB)
	}
}

// TestLocalPrefOverridesPathLength: a customer-learned route must beat a
// shorter peer-learned route.
func TestLocalPrefOverridesPathLength(t *testing.T) {
	cfg := defaultCfg()
	net := netsim.NewNetwork(17)
	lc := netsim.LinkConfig{Delay: 0.01, Bandwidth: 10e6, QueueCap: 64}
	// origin ←customer— mid ←customer— self —peer→ origin (direct).
	self := net.NewNode("self", &netsim.CPUConfig{})
	mid := net.NewNode("mid", &netsim.CPUConfig{})
	origin := net.NewNode("origin", &netsim.CPUConfig{})
	lSM := net.Connect(self, mid, lc)    // mid is self's customer
	lMO := net.Connect(mid, origin, lc)  // origin is mid's customer
	lSO := net.Connect(self, origin, lc) // self—origin peering

	origins := NewOriginSet([]netsim.NodeID{origin.ID})
	mk := func(nd *netsim.Node, peers []PeerConfig, seed int64) *Agent {
		c := cfg
		c.Origins = origins
		c.Peers = peers
		c.Seed = seed
		return NewAgent(nd, c)
	}
	aSelf := mk(self, []PeerConfig{{Link: lSM, Rel: RelCustomer}, {Link: lSO, Rel: RelPeer}}, 1)
	aMid := mk(mid, []PeerConfig{{Link: lSM, Rel: RelProvider}, {Link: lMO, Rel: RelCustomer}}, 2)
	aOrig := mk(origin, []PeerConfig{{Link: lMO, Rel: RelProvider}, {Link: lSO, Rel: RelPeer}}, 3)
	for i, a := range []*Agent{aSelf, aMid, aOrig} {
		a.Start(0.5 + 0.1*float64(i))
	}
	net.RunUntil(120)

	p := aSelf.BestPath(nil, origin.ID)
	if len(p) != 2 || p[0] != mid.ID {
		t.Fatalf("self's best path = %v, want the 2-hop customer route [mid origin]", p)
	}
}

// TestWithdrawPropagates: withdrawing the origin's prefix must make it
// unreachable everywhere, and re-announcing must restore it.
func TestWithdrawPropagates(t *testing.T) {
	net, agents := buildChain(t, 5, defaultCfg())
	net.RunUntil(100)
	last := agents[4]
	if ok, _ := agents[0].Reachable(last.Node().ID); !ok {
		t.Fatal("not converged before withdraw")
	}
	last.Node().Schedule(100, "withdraw", func() { last.WithdrawLocal() })
	net.RunUntil(150)
	for i := 0; i < 4; i++ {
		if ok, _ := agents[i].Reachable(last.Node().ID); ok {
			t.Fatalf("AS%d still reaches the withdrawn prefix", i)
		}
	}
	last.Node().Schedule(150, "announce", func() { last.AnnounceLocal() })
	net.RunUntil(220)
	for i := 0; i < 4; i++ {
		if ok, _ := agents[i].Reachable(last.Node().ID); !ok {
			t.Fatalf("AS%d did not relearn the re-announced prefix", i)
		}
	}
}

// TestLoopRejection: on a triangle of providers every AS must reject
// paths containing itself; convergence must still be loop-free with
// direct (1-hop) routes winning.
func TestLoopRejection(t *testing.T) {
	cfg := defaultCfg()
	net := netsim.NewNetwork(5)
	lc := netsim.LinkConfig{Delay: 0.01, Bandwidth: 10e6, QueueCap: 64}
	nodes := make([]*netsim.Node, 3)
	for i := range nodes {
		nodes[i] = net.NewNode("as", &netsim.CPUConfig{})
	}
	l01 := net.Connect(nodes[0], nodes[1], lc)
	l12 := net.Connect(nodes[1], nodes[2], lc)
	l02 := net.Connect(nodes[0], nodes[2], lc)
	origins := NewOriginSet([]netsim.NodeID{nodes[0].ID, nodes[1].ID, nodes[2].ID})
	// All peers of each other: every route is peer-learned, so nothing is
	// re-exported (Gao–Rexford) — the loop check still guards the direct
	// advertisements that include the receiver.
	peersOf := [][]PeerConfig{
		{{Link: l01, Rel: RelPeer}, {Link: l02, Rel: RelPeer}},
		{{Link: l01, Rel: RelPeer}, {Link: l12, Rel: RelPeer}},
		{{Link: l02, Rel: RelPeer}, {Link: l12, Rel: RelPeer}},
	}
	agents := make([]*Agent, 3)
	for i, nd := range nodes {
		c := cfg
		c.Origins = origins
		c.Peers = peersOf[i]
		c.Seed = int64(i + 1)
		agents[i] = NewAgent(nd, c)
		agents[i].Start(0.5 + 0.1*float64(i))
	}
	net.RunUntil(100)
	for i, a := range agents {
		for j, b := range agents {
			if i == j {
				continue
			}
			ok, plen := a.Reachable(b.Node().ID)
			if !ok || plen != 1 {
				t.Fatalf("AS%d → AS%d reachable=%v len=%d, want direct", i, j, ok, plen)
			}
		}
	}
}

// TestMRAIBatches: with a large MRAI, rapid alternating withdraw and
// re-announce cycles at the origin must coalesce into far fewer flushes
// downstream than with MRAI disabled.
func TestMRAIBatches(t *testing.T) {
	run := func(mrai float64) uint64 {
		cfg := defaultCfg()
		cfg.MRAI = mrai
		net, agents := buildChain(t, 4, cfg)
		net.RunUntil(60)
		first := agents[0]
		for i := 0; i < 20; i++ {
			at := 60 + 0.3*float64(i)
			if i%2 == 0 {
				first.Node().Schedule(at, "withdraw", func() { first.WithdrawLocal() })
			} else {
				first.Node().Schedule(at, "announce", func() { first.AnnounceLocal() })
			}
		}
		net.RunUntil(90)
		var flushes uint64
		for _, a := range agents[1:] {
			flushes += a.Stats().Flushes
		}
		return flushes
	}
	unbatched := run(0)
	batched := run(5)
	if batched >= unbatched {
		t.Fatalf("MRAI=5 produced %d flushes, MRAI=0 produced %d: batching had no effect", batched, unbatched)
	}
}

// TestCrashRestartColdStart: a crashed AS loses its RIB, comes back
// empty, and relearns every prefix from the neighbors' periodic
// refreshes.
func TestCrashRestartColdStart(t *testing.T) {
	net, agents := buildChain(t, 4, defaultCfg())
	net.RunUntil(100)
	mid := agents[1]
	if ok, _ := mid.Reachable(agents[3].Node().ID); !ok {
		t.Fatal("not converged before crash")
	}
	mid.Node().Schedule(100, "crash", func() { mid.Crash() })
	mid.Node().Schedule(130, "restart", func() { mid.Restart(0.5) })
	net.RunUntil(131)
	if ok, _ := mid.Reachable(agents[3].Node().ID); ok {
		t.Fatal("RIB survived the crash")
	}
	net.RunUntil(400) // several refresh periods to relearn and re-export
	for i, a := range agents {
		for j, b := range agents {
			if i == j {
				continue
			}
			if ok, _ := a.Reachable(b.Node().ID); !ok {
				t.Fatalf("AS%d cannot reach AS%d after crash recovery", i, j)
			}
		}
	}
	if pp := mid.k.PendingPackets(); pp != 0 {
		t.Fatalf("pending packets after recovery: %d", pp)
	}
}

// TestHoldTimerExpiry: silencing an AS (Stop without withdraw) must age
// its prefix out of the neighbors' RIBs within the hold time.
func TestHoldTimerExpiry(t *testing.T) {
	net, agents := buildChain(t, 3, defaultCfg())
	net.RunUntil(100)
	last := agents[2]
	if ok, _ := agents[0].Reachable(last.Node().ID); !ok {
		t.Fatal("not converged before stop")
	}
	// The silenced AS sends no withdrawal, so only the hold timer can
	// clear its route from its neighbor's Adj-RIB-In.
	mid := agents[1]
	o := mid.origins.index(last.Node().ID)
	learned := func() bool {
		for p := range mid.peers {
			if mid.adj(o, p).has {
				return true
			}
		}
		return false
	}
	if !learned() {
		t.Fatal("AS1's Adj-RIB-In holds no route to AS2 before stop")
	}
	last.Node().Schedule(100, "stop", func() { last.k.Stop(); last.cancelMRAIs() })
	// Hold time is 4×30 s; give the sweep a full extra period to fire.
	net.RunUntil(100 + 6*30)
	for i := 0; i < 2; i++ {
		if ok, _ := agents[i].Reachable(last.Node().ID); ok {
			t.Fatalf("AS%d still reaches the silenced AS after the hold time", i)
		}
	}
	if learned() {
		t.Fatal("the silenced AS's route did not leave AS1's Adj-RIB-In")
	}
}

// TestWireRoundTrip exercises the encoder/cursor pair, including
// withdrawals and multi-entry messages.
func TestWireRoundTrip(t *testing.T) {
	buf := AppendHeader(nil, 42, 3)
	var err error
	buf, err = appendAdvertise(buf, 7, 42, []netsim.NodeID{3, 9, 7})
	if err != nil {
		t.Fatal(err)
	}
	buf = AppendWithdraw(buf, 11)
	buf, err = appendAdvertise(buf, 42, 42, []netsim.NodeID(nil))
	if err != nil {
		t.Fatal(err)
	}
	if want := WireSize([]int{4, 1}, 1); len(buf) != want {
		t.Fatalf("encoded size %d, want %d", len(buf), want)
	}
	router, count, err := PeekHeader(buf)
	if err != nil || router != 42 || count != 3 {
		t.Fatalf("PeekHeader = (%d, %d, %v)", router, count, err)
	}
	c := NewCursor(buf)
	if !c.Next() || c.Origin() != 7 || c.Withdraw() || c.PathLen() != 4 ||
		c.PathAt(0) != 42 || c.PathAt(1) != 3 || c.PathAt(3) != 7 {
		t.Fatalf("entry 0 mismatch")
	}
	if !c.Next() || c.Origin() != 11 || !c.Withdraw() || c.PathLen() != 0 {
		t.Fatalf("entry 1 mismatch")
	}
	if !c.Next() || c.Origin() != 42 || c.PathLen() != 1 || c.PathAt(0) != 42 {
		t.Fatalf("entry 2 mismatch")
	}
	if c.Next() {
		t.Fatal("cursor overran")
	}
	// Truncations must be caught by validation, never panic the cursor.
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := PeekHeader(buf[:cut]); err == nil {
			t.Fatalf("PeekHeader accepted a %d-byte truncation of %d", cut, len(buf))
		}
	}
}

// mustPanic runs fn and fails unless it panics with a message
// containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one mentioning %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one mentioning %q", msg, want)
		}
	}()
	fn()
}

func TestOriginSetIndex(t *testing.T) {
	s := NewOriginSet([]netsim.NodeID{9, 2, 40})
	for id, want := range map[netsim.NodeID]int{9: 0, 2: 1, 40: 2, 0: -1, 3: -1, 41: -1, 1 << 40: -1, -5: -1} {
		if got := s.index(id); got != want {
			t.Fatalf("index(%d) = %d, want %d", id, got, want)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
}

func TestOriginSetDuplicatePanics(t *testing.T) {
	mustPanic(t, "duplicate origin id 4", func() { NewOriginSet([]netsim.NodeID{4, 1, 4}) })
}

func TestOriginSetNegativePanics(t *testing.T) {
	mustPanic(t, "negative origin id -1", func() { NewOriginSet([]netsim.NodeID{0, -1}) })
}

func TestOriginSetTooManyPanics(t *testing.T) {
	ids := make([]netsim.NodeID, MaxOrigins+1)
	for i := range ids {
		ids[i] = netsim.NodeID(i)
	}
	NewOriginSet(ids[:MaxOrigins])
	mustPanic(t, "exceed MaxOrigins", func() { NewOriginSet(ids) })
}

// TestAgentDuplicateNeighborPanics: two sessions over parallel links to
// the same neighbor are a configuration error, not a silent overwrite
// (updates over the first link would count as Malformed).
func TestAgentDuplicateNeighborPanics(t *testing.T) {
	net := netsim.NewNetwork(3)
	lc := netsim.LinkConfig{Delay: 0.01, Bandwidth: 10e6, QueueCap: 64}
	a := net.NewNode("a", &netsim.CPUConfig{})
	b := net.NewNode("b", &netsim.CPUConfig{})
	c := net.NewNode("c", &netsim.CPUConfig{})
	l1 := net.Connect(a, b, lc)
	l2 := net.Connect(a, c, lc)
	l3 := net.Connect(a, b, lc)
	cfg := defaultCfg()
	cfg.Origins = NewOriginSet([]netsim.NodeID{a.ID})
	cfg.Peers = []PeerConfig{{Link: l1, Rel: RelPeer}, {Link: l2, Rel: RelPeer}, {Link: l3, Rel: RelCustomer}}
	mustPanic(t, "two sessions to neighbor", func() { NewAgent(a, cfg) })
}

// TestAgentTooManyPeersPanics: peer indexes are int16, so a session
// count past math.MaxInt16 is refused before any session is read.
func TestAgentTooManyPeersPanics(t *testing.T) {
	net := netsim.NewNetwork(3)
	a := net.NewNode("a", nil)
	cfg := defaultCfg()
	cfg.Origins = NewOriginSet([]netsim.NodeID{a.ID})
	cfg.Peers = make([]PeerConfig, math.MaxInt16+1)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "peers exceed") {
			t.Fatalf("NewAgent with %d peers: panic %v, want the peer-count panic", len(cfg.Peers), r)
		}
	}()
	NewAgent(a, cfg)
}

// TestMRAIAcrossCrash pins the flush timeline of MRAI intervals across
// crashes: a crash drops the running interval, whose instant then passes
// while the agent is down, a withdrawal on the crashed agent sends
// nothing and starts none, and after the restart changes batch into the
// running interval and a change after an idle expiry goes out at once.
// A flush only reserves its expiry (see peerState.mrai), so the timeline
// is the one a queued expiry gives only if nothing is flushed while the
// agent is down. The expected timeline was recorded from the
// implementation that queued every MRAI expiry.
func TestMRAIAcrossCrash(t *testing.T) {
	cfg := defaultCfg()
	cfg.MRAI = 5
	net, agents := buildChain(t, 2, cfg)
	var tl []string
	for i, a := range agents {
		a.OnFlush = func(at float64, peer netsim.NodeID, adv, wdr int) {
			tl = append(tl, fmt.Sprintf("%.3f AS%d->%d adv %d wdr %d", at, i, peer, adv, wdr))
		}
	}
	as0 := agents[0]
	nd := as0.Node()
	// AS0's first refresh flushes at 0.5 and reserves its expiry for 5.5.
	nd.Schedule(1, "crash", func() { as0.Crash() })
	nd.Schedule(6, "withdraw", func() { as0.WithdrawLocal() }) // down, past 5.5
	nd.Schedule(6, "check", func() {
		// The withdrawal on the crashed agent sent nothing and started
		// no interval: no MRAI event can fire while the agent is down.
		for _, p := range as0.peers {
			if p.mrai != (netsim.Reservation{}) || p.mraiEv != (des.Event{}) {
				t.Errorf("crashed agent holds an MRAI interval to AS%d", p.id)
			}
		}
	})
	nd.Schedule(7, "restart", func() { as0.Restart(0.5) })
	nd.Schedule(8, "announce", func() { as0.AnnounceLocal() })  // flush, expiry 13
	nd.Schedule(9, "withdraw", func() { as0.WithdrawLocal() })  // batched to 13
	nd.Schedule(14, "announce", func() { as0.AnnounceLocal() }) // batched to 18
	nd.Schedule(24, "withdraw", func() { as0.WithdrawLocal() }) // idle since 23: now
	nd.Schedule(25, "crash", func() { as0.Crash() })
	nd.Schedule(26, "restart", func() { as0.Restart(0.5) })
	nd.Schedule(27, "announce", func() { as0.AnnounceLocal() })
	net.RunUntil(40)
	want := []string{
		"0.500 AS0->1 adv 1 wdr 0",
		"0.600 AS1->0 adv 1 wdr 0",
		"8.000 AS0->1 adv 1 wdr 0",
		"13.000 AS0->1 adv 0 wdr 1",
		"18.000 AS0->1 adv 1 wdr 0",
		// AS1's refresh dirties AS0's session before 23, which queues
		// the expiry; it finds nothing exportable and sends nothing.
		"22.116 AS1->0 adv 1 wdr 0",
		"24.000 AS0->1 adv 0 wdr 1",
		// The crash at 25 cancelled the interval running until 29.
		"27.000 AS0->1 adv 1 wdr 0",
	}
	if !slices.Equal(tl, want) {
		t.Fatalf("flush timeline\n got %q\nwant %q", tl, want)
	}
}

// TestMRAIZeroInterval: an MRAI interval of zero still batches the
// changes made in the same handler as the flush, because its expiry is a
// queued event at the flush instant, even after a higher-keyed event has
// fired at that instant. Here AS0 withdraws, re-announces and withdraws
// again in one handler that AS1's event scheduled for its own instant:
// the first withdrawal goes out and the rest batch into an expiry that
// finds nothing to send. The expected timeline was recorded from the
// implementation that queued every MRAI expiry.
func TestMRAIZeroInterval(t *testing.T) {
	cfg := defaultCfg()
	cfg.MRAI = 5
	cfg.MRAIJitter = jitter.None{Tp: 0}
	net, agents := buildChain(t, 2, cfg)
	as0, as1 := agents[0], agents[1]
	var tl []string
	as0.OnFlush = func(at float64, peer netsim.NodeID, adv, wdr int) {
		tl = append(tl, fmt.Sprintf("%.3f adv %d wdr %d", at, adv, wdr))
	}
	as1.Node().Schedule(50, "hop", func() {
		as0.Node().Schedule(50, "flap", func() {
			as0.WithdrawLocal()
			as0.AnnounceLocal()
			as0.WithdrawLocal()
		})
	})
	net.RunUntil(60)
	want := []string{
		"0.500 adv 1 wdr 0",
		"15.553 adv 1 wdr 0",
		"46.866 adv 1 wdr 0",
		"50.000 adv 0 wdr 1",
	}
	if !slices.Equal(tl, want) {
		t.Fatalf("AS0 flush timeline\n got %q\nwant %q", tl, want)
	}
}

// TestEmptyFlushDrawsNoPacket: a flush whose dirty set yields no entry —
// an origin neither exportable nor previously advertised — draws no
// packet, so the live count and the node's next packet id stay where a
// run without the flush would have them. A flush with an entry draws
// exactly one.
func TestEmptyFlushDrawsNoPacket(t *testing.T) {
	net := netsim.NewNetwork(1)
	na := net.NewNode("a", nil)
	nb := net.NewNode("b", nil)
	l := net.Connect(na, nb, netsim.LinkConfig{Delay: 0.01, QueueCap: 8})
	a := NewAgent(na, Config{
		Origins:       NewOriginSet([]netsim.NodeID{na.ID, nb.ID}),
		Peers:         []PeerConfig{{Link: l, Rel: RelPeer}},
		RefreshPeriod: 30,
	})
	// nextID draws and releases a probe packet at a, returning its id.
	nextID := func() uint64 {
		pkt := net.NewPacket(netsim.KindData, na.ID, nb.ID, 64)
		id := pkt.ID
		na.ReleasePacket(pkt)
		return id
	}
	p := &a.peers[0]
	id, live := nextID(), net.LivePackets()
	p.dirty = 1 << 1 // origin b: unreachable, never advertised
	a.flushPeer(p)
	if got := nextID(); got != id+1 || net.LivePackets() != live || p.dirty != 0 || a.Stats().Flushes != 0 {
		t.Fatalf("empty flush: next id %d (want %d), live %d (want %d), dirty %b, flushes %d",
			got, id+1, net.LivePackets(), live, p.dirty, a.Stats().Flushes)
	}
	p.dirty = 1 << 0 // origin a: self-originated, exportable
	a.flushPeer(p)
	if got := nextID(); got != id+3 || net.LivePackets() != live+1 || a.Stats().Flushes != 1 {
		t.Fatalf("flush with an entry: next id %d (want %d), live %d (want %d), flushes %d",
			got, id+3, net.LivePackets(), live+1, a.Stats().Flushes)
	}
}
