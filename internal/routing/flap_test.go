package routing

import (
	"fmt"
	"math"
	"testing"

	"routesync/internal/netsim"
)

// flapTransition is one forwarding-state edge for the watched
// destination at the observer.
type flapTransition struct {
	at      float64
	up      bool
	nextHop netsim.NodeID
	metric  uint32
}

// runFlapScenario drives a two-path topology through repeated flaps of
// the short path's last link and records every route transition for D
// at observer A:
//
//	A — B — D        (short path, metric 2 at A)
//	A — C1 — C2 — D  (alternate, metric 3 at A)
//
// The B–D link flaps twice via scheduled FailAt/RestoreAt. Returns A's
// transition timeline for dest D and the final table entry.
func runFlapScenario(t *testing.T, holdDown float64) ([]flapTransition, *Route) {
	t.Helper()
	n := netsim.NewNetwork(17)
	mk := func(name string) *netsim.Node { return n.NewNode(name, nil) }
	a, b, c1, c2, d := mk("a"), mk("b"), mk("c1"), mk("c2"), mk("d")
	link := netsim.LinkConfig{Delay: 0.01}
	n.Connect(a, b, link)
	bd := n.Connect(b, d, link)
	n.Connect(a, c1, link)
	n.Connect(c1, c2, link)
	n.Connect(c2, d, link)

	// A compressed RIP-like profile (5 s period, 15 s timeout, 25 s GC)
	// so two full flap cycles plus reconvergence fit a short run.
	prof := Profile{
		Name: "flap-test", Period: 5, Infinity: 16,
		TimeoutFactor: 3, GCFactor: 5,
		TriggeredUpdates: true, SplitHorizon: true,
		HoldDown: holdDown,
	}
	cfg := Config{Profile: prof, Seed: 5}
	var agents []*Agent
	for i, nd := range []*netsim.Node{a, b, c1, c2, d} {
		ag := NewAgent(nd, cfg)
		ag.Start(0.1 + 0.37*float64(i))
		agents = append(agents, ag)
	}

	obs := agents[0] // A
	var timeline []flapTransition
	obs.OnRouteChange = func(dest netsim.NodeID, metric uint32, up bool) {
		if dest != d.ID {
			return
		}
		tr := flapTransition{at: a.Now(), up: up, metric: metric}
		if r := obs.Table().Get(dest); r != nil {
			tr.nextHop = r.NextHop
		}
		timeline = append(timeline, tr)
	}

	// Two flap cycles, spaced so timeout (15 s) + hold-down (≤ 20 s)
	// resolve inside each cycle, then a long settle window.
	bd.FailAt(40)
	bd.RestoreAt(75)
	bd.FailAt(115)
	bd.RestoreAt(150)
	n.RunUntil(230)
	return timeline, obs.Table().Get(d.ID)
}

// TestHoldDownUnderRepeatedFlaps is the hold-down × triggered-update
// interaction matrix: under repeated flaps of the primary path, with
// hold-down on, the observer must never resurrect the destination via a
// different next hop inside the hold window; with hold-down off, it
// must fail over to the alternate path well before a hold window would
// have expired. In both configurations convergence after the final
// restore is bounded. The subtest names keep a mode=0 level: mode 0 is
// the kernel's re-arm after processing, its only timer mode.
func TestHoldDownUnderRepeatedFlaps(t *testing.T) {
	const holdDown = 20.0
	for _, hd := range []float64{0, holdDown} {
		t.Run(fmt.Sprintf("mode=0/holddown=%v", hd), func(t *testing.T) {
			timeline, final := runFlapScenario(t, hd)
			if len(timeline) < 4 {
				t.Fatalf("timeline too short (%d transitions): flaps did not propagate", len(timeline))
			}
			if timeline[0].up != true {
				t.Fatalf("first transition is not the initial convergence: %+v", timeline[0])
			}
			lastRestore := 150.0
			var lossAt = math.NaN()
			var lastUpHop netsim.NodeID = -1
			sawFailover := false
			recovered := math.NaN()
			for i, tr := range timeline {
				if tr.up {
					// Recovery after the final restore may be a plain
					// metric improvement (hold-down off: the alternate
					// path was already carrying the route), so any
					// up-edge counts.
					if tr.at > lastRestore && math.IsNaN(recovered) {
						recovered = tr.at
					}
					if !math.IsNaN(lossAt) {
						// Recovery edge: inside the hold window only the
						// pre-loss next hop may reinstall the route.
						if hd > 0 && tr.at < lossAt+hd && tr.nextHop != lastUpHop {
							t.Errorf("resurrection inside hold window: lost %.2f, back %.2f via %d (was %d)",
								lossAt, tr.at, tr.nextHop, lastUpHop)
						}
						if tr.nextHop != lastUpHop {
							sawFailover = true
							if hd == 0 && tr.at-lossAt > 15 {
								t.Errorf("failover without hold-down took %.2f s (lost %.2f, back %.2f), want < 15",
									tr.at-lossAt, lossAt, tr.at)
							}
						}
						lossAt = math.NaN()
					}
					lastUpHop = tr.nextHop
				} else if math.IsNaN(lossAt) {
					lossAt = tr.at
					_ = i
				}
			}
			// Bounded convergence tail: the final restore at t=150 must
			// be followed by a recovery well under GC + hold + a few
			// periods.
			if math.IsNaN(recovered) {
				t.Fatal("no recovery after the final restore")
			}
			if tail := recovered - lastRestore; tail > 50 {
				t.Errorf("convergence tail after final restore = %.2f s, want ≤ 50", tail)
			}
			if final == nil || final.Metric >= 16 {
				t.Fatalf("destination unreachable at end of run: %+v", final)
			}
			if final.Metric != 2 {
				t.Errorf("final metric = %d, want 2 (short path restored)", final.Metric)
			}
			if !sawFailover {
				t.Error("alternate path never used: flap scenario is inert")
			}
		})
	}
}
