package netsim

import (
	"fmt"
	"math"
	"testing"
)

// refFIB is the map-based forwarding table that Node's destination-sorted
// fib replaced, kept as the differential oracle for FuzzFIB. Its
// behaviour is the specification the flat table must reproduce.
type refFIB map[NodeID]Egress

func (f refFIB) SetRoute(dst NodeID, via Medium, nextHop NodeID) {
	f[dst] = Egress{Via: via, NextHop: nextHop}
}

func (f refFIB) ClearRoute(dst NodeID) { delete(f, dst) }

func (f refFIB) ClearRoutes() { clear(f) }

// RetainRoutes is the withdraw loop link-state ran over the map.
func (f refFIB) RetainRoutes(reached []bool) {
	for dst := range f {
		if dst < 0 || int(dst) >= len(reached) || !reached[dst] {
			delete(f, dst)
		}
	}
}

// fibNode builds a node attached to n media, links and LANs alternating,
// each to a fresh peer.
func fibNode(n int) (*Node, []Medium) {
	net := NewNetwork(1)
	nd := net.NewNode("r", nil)
	media := make([]Medium, n)
	for i := range media {
		peer := net.NewNode(fmt.Sprint("p", i), nil)
		if i%2 == 0 {
			media[i] = net.Connect(nd, peer, LinkConfig{})
		} else {
			media[i] = net.NewLAN([]*Node{nd, peer}, LANConfig{})
		}
	}
	return nd, media
}

// fuzzWideIDs are the node ids FuzzFIB's id bytes 252–255 stand for: the
// edges of the forwarding table's 32-bit id range and one beyond it.
var fuzzWideIDs = [4]NodeID{math.MaxInt32, math.MaxInt32 + 1, math.MaxUint32, math.MaxUint32 + 1}

// fuzzID decodes a FuzzFIB id byte.
func fuzzID(b int) NodeID {
	if b >= 252 {
		return fuzzWideIDs[b-252]
	}
	return NodeID(b)
}

// FuzzFIB replays a program decoded from the fuzz bytes on a node's
// forwarding table and on refFIB, the map it replaced, and requires
// after every op that Route agrees with the reference on every id a
// program can name (and on -1), and that the table holds exactly the
// reference's entries, sorted by destination. The first byte picks 1–8
// media; after it one op is a byte whose value mod 4 selects:
//
//	0  SetRoute: destination, medium, next hop
//	1  ClearRoute: destination
//	2  ClearRoutes
//	3  RetainRoutes: a length byte L, then ⌈L/8⌉ bytes whose bits,
//	   low bit first, give reached[0..L)
//
// An id is one byte: 0–251 stand for themselves and 252–255 for
// fuzzWideIDs. SetRoute with an id outside [0, 2^32) must panic and
// leave the table alone. Missing argument bytes read as zero. The seed
// corpus lives in testdata/fuzz/FuzzFIB; its programs were recorded from
// the forwarding-table calls the routing and link-state tests make, one
// node each. Run it with
//
//	go test -run '^$' -fuzz FuzzFIB -fuzztime 20s -fuzzminimizetime 100x ./internal/netsim/
func FuzzFIB(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		next := func() int {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return int(b)
		}
		nd, media := fibNode(1 + next()%8)
		ref := refFIB{}
		for step := 0; len(prog) > 0; step++ {
			var what string
			switch op := next() % 4; op {
			case 0:
				dst, m, hop := fuzzID(next()), next()%len(media), fuzzID(next())
				what = fmt.Sprintf("SetRoute(%d, medium %d, %d)", dst, m, hop)
				_, okD := fibID(dst)
				_, okN := fibID(hop)
				if p := panics(func() { nd.SetRoute(dst, media[m], hop) }); p != (!okD || !okN) {
					t.Fatalf("step %d %s: panicked %v", step, what, p)
				}
				if okD && okN {
					ref.SetRoute(dst, media[m], hop)
				}
			case 1:
				dst := fuzzID(next())
				what = fmt.Sprintf("ClearRoute(%d)", dst)
				nd.ClearRoute(dst)
				ref.ClearRoute(dst)
			case 2:
				what = "ClearRoutes"
				nd.ClearRoutes()
				ref.ClearRoutes()
			case 3:
				reached := make([]bool, next())
				for i := 0; i < len(reached); i += 8 {
					bits := next()
					for j := i; j < min(i+8, len(reached)); j++ {
						reached[j] = bits>>(j-i)&1 == 1
					}
				}
				what = fmt.Sprintf("RetainRoutes(%v)", reached)
				nd.RetainRoutes(reached)
				ref.RetainRoutes(reached)
			}
			compareFIB(t, nd, ref, fmt.Sprintf("step %d %s", step, what))
		}
	})
}

// compareFIB fails t unless nd's forwarding table holds exactly ref's
// entries in ascending destination order and Route answers as ref does
// for every id a FuzzFIB program can name, and for -1.
func compareFIB(t *testing.T, nd *Node, ref refFIB, where string) {
	t.Helper()
	if len(nd.fib) != len(ref) {
		t.Fatalf("%s: %d entries, reference %d", where, len(nd.fib), len(ref))
	}
	for i := 1; i < len(nd.fib); i++ {
		if nd.fib[i-1].dst >= nd.fib[i].dst {
			t.Fatalf("%s: entries %d and %d out of order: %+v", where, i-1, i, nd.fib)
		}
	}
	for b := -1; b < 256; b++ {
		dst := NodeID(-1)
		if b >= 0 {
			dst = fuzzID(b)
		}
		got, ok := nd.Route(dst)
		want, wantOK := ref[dst]
		if ok != wantOK || got != want {
			t.Fatalf("%s: Route(%d) = %v, %v; reference %v, %v", where, dst, got, ok, want, wantOK)
		}
	}
}

// TestSetRouteRejectsForeignMedium: a route may only leave on a medium
// the node is attached to.
func TestSetRouteRejectsForeignMedium(t *testing.T) {
	nd, _ := fibNode(1)
	_, other := fibNode(1)
	if !panics(func() { nd.SetRoute(5, other[0], 1) }) {
		t.Fatal("SetRoute via an unattached medium did not panic")
	}
	if _, ok := nd.Route(5); ok {
		t.Fatal("rejected route was installed")
	}
}

// TestFIBSteadyStateAllocs: once the table has reached its high-water
// size, a cycle that sets, looks up and clears routes — and the
// link-state withdraw pass — allocates nothing.
func TestFIBSteadyStateAllocs(t *testing.T) {
	const dests = 200
	nd, media := fibNode(4)
	reached := make([]bool, dests)
	for d := range reached {
		reached[d] = d%3 != 0
	}
	var sink Egress
	cycle := func() {
		// Descending inserts shift the whole array each time.
		for d := NodeID(dests - 1); d >= 0; d-- {
			nd.SetRoute(d, media[int(d)%len(media)], d+1)
		}
		for d := NodeID(0); d < dests; d++ {
			sink, _ = nd.Route(d)
		}
		nd.RetainRoutes(reached)
		for d := NodeID(0); d < dests; d += 2 {
			nd.ClearRoute(d)
		}
		nd.ClearRoutes()
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("set/lookup/retain/clear cycle: %v allocs/op, want 0", allocs)
	}
	_ = sink
}
