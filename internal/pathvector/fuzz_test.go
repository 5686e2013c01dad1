package pathvector

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"routesync/internal/netsim"
)

// FuzzPathVectorDecode checks the decoder the agents' integrate path
// reads, on two readings of the same bytes:
//
//   - as a frame off the wire: if PeekHeader accepts it, a Cursor walks
//     exactly count entries and every accessor, PathAt included, stays
//     in bounds;
//   - as a recipe for a frame: the entries built from it by
//     AppendAdvertise/AppendWithdraw decode back to their inputs.
//
// The seed corpus lives in testdata/fuzz/FuzzPathVectorDecode. Run it
// with
//
//	go test -run '^$' -fuzz FuzzPathVectorDecode -fuzztime 20s -fuzzminimizetime 100x ./internal/pathvector/
func FuzzPathVectorDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		walkFrame(t, data)
		roundTrip(t, data)
	})
}

// walkFrame decodes data as a received update would be.
func walkFrame(t *testing.T, data []byte) {
	router, count, err := PeekHeader(data)
	if err != nil {
		return
	}
	if got := netsim.NodeID(binary.BigEndian.Uint32(data[4:])); router != got {
		t.Fatalf("router %d, header says %d", router, got)
	}
	c := NewCursor(data)
	for i := 0; i < count; i++ {
		if !c.Next() {
			t.Fatalf("cursor stopped after %d of %d entries", i, count)
		}
		_, _ = c.Origin(), c.Withdraw()
		// A withdrawal may carry hops on the wire; read them all.
		for h := 0; h < c.PathLen(); h++ {
			_ = c.PathAt(h)
		}
	}
	if c.Next() {
		t.Fatalf("cursor yielded more than %d entries", count)
	}
}

// recipeEntry is one entry of a frame built from fuzz bytes.
type recipeEntry struct {
	origin   netsim.NodeID
	withdraw bool
	path     []netsim.NodeID // excluding the sender, which the encoder prepends
}

// roundTrip reads data as a recipe — a uint32 router, then entries of a
// flag byte, a uint32 origin and, for advertisements, a hop-count byte
// and that many uint32 hops — encodes it and decodes it back.
func roundTrip(t *testing.T, data []byte) {
	if len(data) < 4 {
		return
	}
	router := netsim.NodeID(binary.BigEndian.Uint32(data))
	data = data[4:]
	var entries []recipeEntry
	for len(data) >= 5 && len(entries) < MaxEntries {
		e := recipeEntry{
			origin:   netsim.NodeID(binary.BigEndian.Uint32(data[1:])),
			withdraw: data[0]&1 != 0,
		}
		data = data[5:]
		if !e.withdraw && len(data) > 0 {
			hops := min(int(data[0]), MaxPathLen-1, (len(data)-1)/hopLen)
			data = data[1:]
			for h := 0; h < hops; h++ {
				e.path = append(e.path, netsim.NodeID(binary.BigEndian.Uint32(data)))
				data = data[hopLen:]
			}
		}
		entries = append(entries, e)
	}

	buf := AppendHeader(nil, router, len(entries))
	for _, e := range entries {
		if e.withdraw {
			buf = AppendWithdraw(buf, e.origin)
			continue
		}
		var err error
		if buf, err = appendAdvertise(buf, e.origin, router, e.path); err != nil {
			t.Fatalf("AppendAdvertise rejected a %d-hop path: %v", len(e.path), err)
		}
	}

	gotRouter, count, err := PeekHeader(buf)
	if err != nil || gotRouter != router || count != len(entries) {
		t.Fatalf("PeekHeader = (%d, %d, %v), want (%d, %d, nil)", gotRouter, count, err, router, len(entries))
	}
	c := NewCursor(buf)
	for i, e := range entries {
		if !c.Next() {
			t.Fatalf("cursor stopped at entry %d of %d", i, len(entries))
		}
		if c.Origin() != e.origin || c.Withdraw() != e.withdraw {
			t.Fatalf("entry %d: origin %d withdraw %v, want %d %v", i, c.Origin(), c.Withdraw(), e.origin, e.withdraw)
		}
		if e.withdraw {
			if c.PathLen() != 0 {
				t.Fatalf("entry %d: withdrawal carries %d hops", i, c.PathLen())
			}
			continue
		}
		if c.PathLen() != 1+len(e.path) || c.PathAt(0) != router {
			t.Fatalf("entry %d: %d hops from %d, want %d from %d", i, c.PathLen(), c.PathAt(0), 1+len(e.path), router)
		}
		for h, want := range e.path {
			if got := c.PathAt(1 + h); got != want {
				t.Fatalf("entry %d hop %d = %d, want %d", i, 1+h, got, want)
			}
		}
	}
	if c.Next() {
		t.Fatal("cursor overran the encoded entries")
	}
}

// FuzzAdjRIBIn replays a program decoded from the fuzz bytes against one
// small agent's Adj-RIB-In — integrate, clearAdj and reselect as process
// runs them, sweep, resetRIB and local origination toggles — and in
// parallel against refRIB, a reference that keeps every path as its own
// []netsim.NodeID. After each op the two must agree on Reachable,
// BestPath and the selected peer for every origin, and the hop arena's
// accounting must hold (see checkArena). One op is a byte whose value
// mod 8 selects:
//
//	0, 1, 2, 7  advertise: peer, origin, length (1–30), loop byte, hops
//	3           withdraw: peer, origin
//	4           advance time by a byte's worth of seconds, then sweep
//	5           reset the RIB, as a crash does
//	6           toggle origination of the agent's own prefix
//
// A loop byte below 32 puts the agent's own AS at that hop (mod the
// length). Missing argument bytes read as zero. The seed corpus lives in
// testdata/fuzz/FuzzAdjRIBIn; run it with
//
//	go test -run '^$' -fuzz FuzzAdjRIBIn -fuzztime 20s -fuzzminimizetime 100x ./internal/pathvector/
func FuzzAdjRIBIn(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		a, net := newFuzzAgent()
		ref := newRefRIB(a)
		var buf []byte
		next := func() int {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return int(b)
		}
		for step := 0; len(prog) > 0; step++ {
			op := next() % 8
			var what string
			switch op {
			case 3:
				p, o := next()%len(a.peers), next()%a.origins.Len()
				what = fmt.Sprintf("withdraw(peer %d, origin %d)", p, o)
				got, want := a.clearAdj(o, p), ref.clear(o, p)
				if got != want {
					t.Fatalf("step %d %s: clearAdj = %v, reference %v", step, what, got, want)
				}
				if got && a.reselect(o, -1) {
					a.flushIdlePeers()
				}
			case 4:
				dt := float64(next())
				what = fmt.Sprintf("sweep after %v s", dt)
				net.RunUntil(net.Now() + dt)
				a.sweep()
				ref.sweep(net.Now(), holdFactor*a.cfg.RefreshPeriod)
			case 5:
				what = "reset"
				a.resetRIB()
				ref.reset()
			case 6:
				what = "toggle local"
				if a.localUp {
					a.WithdrawLocal()
				} else {
					a.AnnounceLocal()
				}
				ref.localUp = !ref.localUp
			default:
				p, o, n := next()%len(a.peers), next()%a.origins.Len(), 1+next()%30
				loop := next()
				path := make([]netsim.NodeID, n)
				for i := range path {
					path[i] = netsim.NodeID(1 + next()%15) // never the agent's own id, 0
				}
				if loop < 32 {
					path[loop%n] = a.Node().ID
				}
				what = fmt.Sprintf("advertise(peer %d, origin %d, %v)", p, o, path)
				buf = AppendHeader(buf[:0], path[0], 1)
				buf, _ = appendAdvertise(buf, a.origins.ids[o], path[0], path[1:])
				c := NewCursor(buf)
				c.Next()
				got := a.integrate(o, p, &c, net.Now())
				if want := ref.advertise(o, p, path, net.Now()); got != want {
					t.Fatalf("step %d %s: integrate = %v, reference %v", step, what, got, want)
				}
				if got && a.reselect(o, p) {
					a.flushIdlePeers()
				}
			}
			ref.compare(t, a, fmt.Sprintf("step %d %s", step, what))
		}
	})
}

// newFuzzAgent builds an unstarted agent (node id 0) with four sessions
// whose relations and ids exercise every selection rule: a customer, two
// peers that tie on preference, and a provider, listed out of id order.
// Origins are the agent itself and two other ASes. MRAI is off, so a
// flush sends at once and arms no timer; the neighbors run no agent, so
// whatever the agent sends is dropped on arrival and nothing comes back.
func newFuzzAgent() (*Agent, *netsim.Network) {
	net := netsim.NewNetwork(1)
	self := net.NewNode("self", nil)
	nbrs := make([]*netsim.Node, 4)
	for i := range nbrs {
		nbrs[i] = net.NewNode(fmt.Sprintf("n%d", i+1), nil)
	}
	link := func(i int) *netsim.Link {
		return net.Connect(self, nbrs[i], netsim.LinkConfig{Delay: 0.01, Bandwidth: 10e6, QueueCap: 64})
	}
	a := NewAgent(self, Config{
		Origins: NewOriginSet([]netsim.NodeID{self.ID, 2, 9}),
		Peers: []PeerConfig{
			{Link: link(3), Rel: RelPeer},
			{Link: link(0), Rel: RelCustomer},
			{Link: link(2), Rel: RelProvider},
			{Link: link(1), Rel: RelPeer},
		},
		RefreshPeriod: 30,
	})
	return a, net
}

// refRIB is the reference Adj-RIB-In: one separately allocated path per
// (origin, peer) and route selection recomputed from scratch, with the
// agent's semantics — a path through our own AS withdraws the peer's
// route, a pure refresh renews the hold timer, and selection prefers
// LOCAL_PREF, then path length, then the lower neighbor id.
type refRIB struct {
	self    netsim.NodeID
	selfIdx int
	localUp bool
	ids     []netsim.NodeID // peer ids, by peer index
	prefs   []uint8         // peer LOCAL_PREFs, by peer index
	adj     [][][]netsim.NodeID
	updated [][]float64
}

func newRefRIB(a *Agent) *refRIB {
	r := &refRIB{self: a.Node().ID, selfIdx: a.selfIdx, localUp: a.localUp}
	for _, p := range a.peers {
		r.ids = append(r.ids, p.id)
		r.prefs = append(r.prefs, localPref(p.rel))
	}
	r.adj = make([][][]netsim.NodeID, a.origins.Len())
	r.updated = make([][]float64, a.origins.Len())
	for o := range r.adj {
		r.adj[o] = make([][]netsim.NodeID, len(a.peers))
		r.updated[o] = make([]float64, len(a.peers))
	}
	return r
}

// advertise installs path and reports whether the stored route changed.
func (r *refRIB) advertise(o, p int, path []netsim.NodeID, now float64) bool {
	if slices.Contains(path, r.self) {
		return r.clear(o, p)
	}
	same := r.adj[o][p] != nil && slices.Equal(r.adj[o][p], path)
	r.adj[o][p] = slices.Clone(path)
	r.updated[o][p] = now
	return !same
}

// clear removes the route and reports whether there was one.
func (r *refRIB) clear(o, p int) bool {
	had := r.adj[o][p] != nil
	r.adj[o][p] = nil
	return had
}

func (r *refRIB) sweep(now, hold float64) {
	for o := range r.adj {
		for p := range r.adj[o] {
			if r.adj[o][p] != nil && now-r.updated[o][p] > hold {
				r.adj[o][p] = nil
			}
		}
	}
}

func (r *refRIB) reset() {
	for o := range r.adj {
		clear(r.adj[o])
	}
}

// selected returns the winning peer for origin o, or bestSelf/bestNone.
func (r *refRIB) selected(o int) int {
	if o == r.selfIdx && r.localUp {
		return bestSelf
	}
	best := bestNone
	for p, path := range r.adj[o] {
		if path == nil {
			continue
		}
		if best == bestNone {
			best = p
			continue
		}
		bp, bl := r.prefs[best], len(r.adj[o][best])
		if r.prefs[p] > bp || (r.prefs[p] == bp && (len(path) < bl || (len(path) == bl && r.ids[p] < r.ids[best]))) {
			best = p
		}
	}
	return best
}

// compare fails t unless the agent agrees with the reference on every
// origin and its hop arena is consistent.
func (r *refRIB) compare(t *testing.T, a *Agent, where string) {
	t.Helper()
	for o, id := range a.origins.ids {
		want := r.selected(o)
		if int(a.best[o]) != want {
			t.Fatalf("%s: origin %d selects %d, reference %d", where, id, a.best[o], want)
		}
		var wantPath []netsim.NodeID
		if want >= 0 {
			wantPath = r.adj[o][want]
		}
		if got := a.BestPath(nil, id); !slices.Equal(got, wantPath) {
			t.Fatalf("%s: origin %d best path %v, reference %v", where, id, got, wantPath)
		}
		ok, n := a.Reachable(id)
		if ok != (want != bestNone) || n != len(wantPath) {
			t.Fatalf("%s: origin %d Reachable = (%v, %d), reference (%v, %d)", where, id, ok, n, want != bestNone, len(wantPath))
		}
	}
	checkArena(t, a, where)
}

// checkArena verifies the hop arena's accounting: every slot's run lies
// inside the arena and holds its path, no two runs overlap, the runs and
// the dead entries add up to the arena's length, and dead entries never
// outnumber live ones.
func checkArena(t *testing.T, a *Agent, where string) {
	t.Helper()
	owner := make([]int, len(a.hops))
	live := 0
	for i, s := range a.adjIn {
		if int(s.n) > int(s.cap) || int(s.off)+int(s.cap) > len(a.hops) || (!s.has && s.n != 0) {
			t.Fatalf("%s: slot %d = %+v over an arena of %d", where, i, s, len(a.hops))
		}
		for j := s.off; j < s.off+uint32(s.cap); j++ {
			if owner[j] != 0 {
				t.Fatalf("%s: slots %d and %d share arena entry %d", where, owner[j]-1, i, j)
			}
			owner[j] = i + 1
		}
		live += int(s.cap)
	}
	if live+a.dead != len(a.hops) || a.dead > live {
		t.Fatalf("%s: %d live + %d dead entries in an arena of %d", where, live, a.dead, len(a.hops))
	}
}
