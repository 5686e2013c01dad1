package routing

import (
	"testing"

	"routesync/internal/jitter"
	"routesync/internal/netsim"
)

func TestExportPoisonReverse(t *testing.T) {
	tb := NewTable(16)
	tb.SetLocal(0, 0)
	lan := &fakeMedium{"lan"}
	applyMsg(tb, Message{Router: 1, Entries: []Entry{{Dest: 5, Metric: 1}}}, lan, 1, 1)

	got := exportEntries(tb, lan, true, true)
	byDest := map[netsim.NodeID]uint32{}
	for _, e := range got {
		byDest[e.Dest] = e.Metric
	}
	// LAN-learned routes advertised poisoned, not omitted.
	if byDest[1] != 16 || byDest[5] != 16 {
		t.Fatalf("poison reverse metrics = %v", byDest)
	}
	if byDest[0] != 0 {
		t.Fatalf("local route metric = %d", byDest[0])
	}
	if len(got) != 3 {
		t.Fatalf("export = %v", got)
	}
}

func TestHoldDownBlocksResurrection(t *testing.T) {
	tb := NewTable(16)
	tb.SetHoldDown(100)
	m := &fakeMedium{"lan"}
	applyMsg(tb, Message{Router: 1, Entries: []Entry{{Dest: 5, Metric: 1}}}, m, 0, 1)
	// Next hop declares dest 5 dead at t=10 → hold until t=110.
	applyMsg(tb, Message{Router: 1, Entries: []Entry{{Dest: 5, Metric: 16}}}, m, 10, 1)
	if !tb.HeldDown(5, 50) {
		t.Fatal("destination not held down")
	}
	// Another neighbor claims a path during the hold: rejected.
	applyMsg(tb, Message{Router: 2, Entries: []Entry{{Dest: 5, Metric: 3}}}, m, 50, 1)
	if r := tb.Get(5); r.Metric != 16 {
		t.Fatalf("hold-down violated: %+v", r)
	}
	// After the hold expires the same news is accepted.
	applyMsg(tb, Message{Router: 2, Entries: []Entry{{Dest: 5, Metric: 3}}}, m, 120, 1)
	if r := tb.Get(5); r.Metric != 4 || r.NextHop != 2 {
		t.Fatalf("post-hold adoption failed: %+v", r)
	}
}

func TestHoldDownAfterTimeout(t *testing.T) {
	tb := NewTable(16)
	tb.SetHoldDown(100)
	m := &fakeMedium{"lan"}
	applyMsg(tb, Message{Router: 1, Entries: []Entry{{Dest: 5, Metric: 1}}}, m, 0, 1)
	tb.Expire(200, 180, 1000) // times out → hold until 300
	if !tb.HeldDown(5, 250) {
		t.Fatal("timeout did not start hold-down")
	}
	applyMsg(tb, Message{Router: 2, Entries: []Entry{{Dest: 5, Metric: 2}}}, m, 250, 1)
	if r := tb.Get(5); r.Metric != 16 {
		t.Fatalf("hold-down after timeout violated: %+v", r)
	}
}

func TestHoldDownBlocksRelearnAfterGC(t *testing.T) {
	tb := NewTable(16)
	tb.SetHoldDown(500)
	m := &fakeMedium{"lan"}
	applyMsg(tb, Message{Router: 1, Entries: []Entry{{Dest: 5, Metric: 1}}}, m, 0, 1)
	applyMsg(tb, Message{Router: 1, Entries: []Entry{{Dest: 5, Metric: 16}}}, m, 10, 1) // hold until 510
	tb.Expire(400, 180, 300)                                                            // GC deletes the dead entry
	if tb.Get(5) != nil {
		t.Fatal("route not deleted")
	}
	// A fresh advertisement inside the hold window is still rejected.
	applyMsg(tb, Message{Router: 2, Entries: []Entry{{Dest: 5, Metric: 1}}}, m, 450, 1)
	if tb.Get(5) != nil {
		t.Fatal("hold-down bypassed after GC")
	}
	// And accepted after it.
	applyMsg(tb, Message{Router: 2, Entries: []Entry{{Dest: 5, Metric: 1}}}, m, 600, 1)
	if r := tb.Get(5); r == nil || r.Metric != 2 {
		t.Fatalf("post-hold relearn failed: %+v", r)
	}
}

func TestSetHoldDownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative hold-down did not panic")
		}
	}()
	NewTable(16).SetHoldDown(-1)
}

// countToInfinityScenario builds A — B — C, converges, kills B—C, and
// returns the time B took to declare C unreachable plus the total
// updates exchanged after the failure.
func countToInfinityScenario(t *testing.T, prof Profile) (declareSeconds float64, updates uint64) {
	t.Helper()
	net := netsim.NewNetwork(42)
	a := net.NewNode("a", nil)
	b := net.NewNode("b", nil)
	c := net.NewNode("c", nil)
	net.Connect(a, b, netsim.LinkConfig{Delay: 0.001})
	lbc := net.Connect(b, c, netsim.LinkConfig{Delay: 0.001})
	cfg := Config{Profile: prof, Jitter: jitter.HalfSpread{Tp: prof.Period}, Seed: 9}
	agents := []*Agent{NewAgent(a, cfg), NewAgent(b, cfg), NewAgent(c, cfg)}
	for i, ag := range agents {
		ag.Start(float64(i) + 1)
	}
	warm := 6 * prof.Period
	net.RunUntil(warm)
	if r := agents[0].Table().Get(c.ID); r == nil || r.Metric != 2 {
		t.Fatalf("pre-failure convergence failed: %+v", r)
	}
	before := agents[0].Stats().PeriodicSent + agents[0].Stats().TriggeredSent +
		agents[1].Stats().PeriodicSent + agents[1].Stats().TriggeredSent

	lbc.SetDown(true)
	// Step until B's route to C is unreachable or gone.
	deadline := warm + 100*prof.Period
	for net.Sim.Now() < deadline {
		net.RunUntil(net.Sim.Now() + prof.Period/4)
		r := agents[1].Table().Get(c.ID)
		if r == nil || r.Metric >= prof.Infinity {
			after := agents[0].Stats().PeriodicSent + agents[0].Stats().TriggeredSent +
				agents[1].Stats().PeriodicSent + agents[1].Stats().TriggeredSent
			return net.Sim.Now() - warm, after - before
		}
	}
	t.Fatalf("%s: B never declared C unreachable", prof.Name)
	return 0, 0
}

// TestSplitHorizonDampsCountToInfinity: without split horizon, A's echo
// of B's own route can ping-pong the metric upward before infinity is
// reached; with split horizon (and especially poison reverse) the
// unreachability settles without the metric race.
func TestSplitHorizonDampsCountToInfinity(t *testing.T) {
	plain := RIP()
	plain.SplitHorizon = false
	plain.PoisonReverse = false
	plain.HoldDown = 0

	sh := RIP()
	sh.HoldDown = 0

	tPlain, _ := countToInfinityScenario(t, plain)
	tSH, _ := countToInfinityScenario(t, sh)
	if tSH > tPlain*2 {
		t.Fatalf("split horizon slower than plain: %.0fs vs %.0fs", tSH, tPlain)
	}
	// Both must settle well inside the horizon; the stronger check is
	// that split horizon never *loses* to plain by more than noise,
	// verified above, and that the metric race (route bouncing between
	// reachable values after failure) does not occur with split horizon,
	// verified in TestNoMetricRaceWithSplitHorizon.
}

// TestNoMetricRaceWithSplitHorizon: after the failure, with split
// horizon B's route to C must never be re-learned from A (a loop).
func TestNoMetricRaceWithSplitHorizon(t *testing.T) {
	net := netsim.NewNetwork(43)
	a := net.NewNode("a", nil)
	b := net.NewNode("b", nil)
	c := net.NewNode("c", nil)
	net.Connect(a, b, netsim.LinkConfig{Delay: 0.001})
	lbc := net.Connect(b, c, netsim.LinkConfig{Delay: 0.001})
	prof := RIP()
	prof.HoldDown = 0
	cfg := Config{Profile: prof, Jitter: jitter.HalfSpread{Tp: 30}, Seed: 10}
	agA, agB := NewAgent(a, cfg), NewAgent(b, cfg)
	agC := NewAgent(c, cfg)
	agA.Start(1)
	agB.Start(2)
	agC.Start(3)
	net.RunUntil(180)
	lbc.SetDown(true)
	for net.Sim.Now() < 180+600 {
		net.RunUntil(net.Sim.Now() + 5)
		r := agB.Table().Get(c.ID)
		if r != nil && r.Metric < prof.Infinity && r.NextHop == a.ID {
			t.Fatalf("split horizon violated: B routes to C via A (metric %d)", r.Metric)
		}
	}
}

// TestHoldDownPreventsFlapAdoption: with hold-down enabled, after C
// fails, B ignores transiently stale claims about C until the hold
// expires, even from third parties.
func TestHoldDownPreventsFlapAdoption(t *testing.T) {
	prof := RIP()
	prof.SplitHorizon = false // make A echo stale routes
	prof.PoisonReverse = false
	prof.HoldDown = 120

	net := netsim.NewNetwork(44)
	a := net.NewNode("a", nil)
	b := net.NewNode("b", nil)
	c := net.NewNode("c", nil)
	net.Connect(a, b, netsim.LinkConfig{Delay: 0.001})
	lbc := net.Connect(b, c, netsim.LinkConfig{Delay: 0.001})
	cfg := Config{Profile: prof, Jitter: jitter.HalfSpread{Tp: 30}, Seed: 11}
	agB := NewAgent(b, cfg)
	NewAgent(a, cfg).Start(1)
	agB.Start(2)
	NewAgent(c, cfg).Start(3)
	net.RunUntil(180)
	lbc.SetDown(true)

	// Wait until B first marks C unreachable, then confirm it stays
	// unreachable for the hold window despite A's stale advertisements.
	var deadAt float64 = -1
	for net.Sim.Now() < 180+900 {
		net.RunUntil(net.Sim.Now() + 5)
		r := agB.Table().Get(c.ID)
		if deadAt < 0 {
			if r == nil || r.Metric >= prof.Infinity {
				deadAt = net.Sim.Now()
			}
			continue
		}
		if net.Sim.Now() < deadAt+prof.HoldDown-10 {
			if r != nil && r.Metric < prof.Infinity {
				t.Fatalf("hold-down violated at %.0fs (dead at %.0fs): %+v",
					net.Sim.Now(), deadAt, r)
			}
		} else {
			break
		}
	}
	if deadAt < 0 {
		t.Fatal("B never marked C unreachable")
	}
}
