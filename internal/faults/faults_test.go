package faults

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"routesync/internal/jitter"
	"routesync/internal/netsim"
	"routesync/internal/routing"
)

// compressedProfile is a RIP-like profile shrunk so flap cycles and
// recovery fit short test runs: 5 s period, 15 s timeout, 25 s GC.
func compressedProfile(holdDown float64) routing.Profile {
	return routing.Profile{
		Name: "test", Period: 5, Infinity: 16,
		TimeoutFactor: 3, GCFactor: 5,
		TriggeredUpdates: true, SplitHorizon: true,
		HoldDown: holdDown,
	}
}

func linkBetween(a, b *netsim.Node) *netsim.Link {
	for _, m := range a.Media() {
		if l, ok := m.(*netsim.Link); ok && l.Peer(a) == b {
			return l
		}
	}
	panic("no link between nodes")
}

// TestFlapTimelineDeterministic: the materialized timeline is a pure
// function of (seed, target identity) — install order does not matter,
// each link keeps its own stream, and equal seeds reproduce it exactly.
func TestFlapTimelineDeterministic(t *testing.T) {
	flap := func(order ...int) *Injector {
		n := netsim.NewNetwork(1)
		a, b, c := n.NewNode("a", nil), n.NewNode("b", nil), n.NewNode("c", nil)
		links := []*netsim.Link{n.Connect(a, b, netsim.LinkConfig{Delay: 0.01}), n.Connect(b, c, netsim.LinkConfig{Delay: 0.01})}
		in := NewInjector(42)
		for _, i := range order {
			in.FlapLink(links[i], FlapConfig{MeanUp: 30, MeanDown: 10, Start: 5, Horizon: 300})
		}
		return in
	}
	// Each link alone: alternating down/up, strictly increasing times,
	// and FailureTimes exactly the down instants.
	var perLink [2][]Event
	for i := range perLink {
		in := flap(i)
		evs := in.Timeline()
		if len(evs) < 2 {
			t.Fatalf("link %d timeline too short: %v", i, evs)
		}
		var downs []float64
		for j, e := range evs {
			if e.Kind != []Kind{LinkDown, LinkUp}[j%2] || (j > 0 && e.At <= evs[j-1].At) {
				t.Fatalf("link %d: event %d breaks down/up alternation at increasing times: %v", i, j, evs)
			}
			if e.Kind == LinkDown {
				downs = append(downs, e.At)
			}
		}
		if ts := in.FailureTimes(); !reflect.DeepEqual(ts, downs) {
			t.Fatalf("link %d FailureTimes %v, want the LinkDown instants %v", i, ts, downs)
		}
		perLink[i] = evs
	}
	if reflect.DeepEqual(perLink[0], perLink[1]) {
		t.Fatalf("both links drew the same flap stream: %v", perLink[0])
	}
	// Both links, in either install order: the time-sorted merge of the
	// one-link timelines. A stream keyed by install position rather than
	// by endpoints would hand one link's draws to the other here.
	want := append(append([]Event(nil), perLink[0]...), perLink[1]...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].At < want[j].At })
	for _, order := range [][]int{{0, 1}, {1, 0}} {
		if got := flap(order...).Timeline(); !reflect.DeepEqual(got, want) {
			t.Fatalf("install order %v: timeline\n %+v\nwant the merge of the one-link timelines\n %+v", order, got, want)
		}
	}
}

// TestCrashRebootRecovery: a crashed middle router loses its volatile
// state and drops packets; on reboot with RequestOnStart it repopulates
// its table from a neighbor answer instead of waiting out the periodic
// timers, and end-to-end forwarding resumes.
func TestCrashRebootRecovery(t *testing.T) {
	n := netsim.NewNetwork(9)
	a := n.NewNode("a", nil)
	b := n.NewNode("b", nil)
	c := n.NewNode("c", nil)
	n.Connect(a, b, netsim.LinkConfig{Delay: 0.01})
	n.Connect(b, c, netsim.LinkConfig{Delay: 0.01})
	cfg := routing.Config{
		Profile:        compressedProfile(0),
		Jitter:         jitter.HalfSpread{Tp: 5},
		RequestOnStart: true,
		Seed:           3,
	}
	var agents []*routing.Agent
	for i, nd := range []*netsim.Node{a, b, c} {
		ag := routing.NewAgent(nd, cfg)
		ag.Start(0.2 + 0.4*float64(i))
		agents = append(agents, ag)
	}
	mid := agents[1]
	in := NewInjector(1)
	in.CrashAgent(mid, 30)
	in.RebootAgent(mid, 40, 0.3)
	n.RunUntil(30.5)
	if !mid.Node().Failed() {
		t.Fatal("node not failed after CrashAgent fired")
	}
	if got := mid.Table().Len(); got != 0 {
		t.Fatalf("crashed agent still holds %d routes", got)
	}
	for id := netsim.NodeID(0); id < netsim.NodeID(n.NumNodes()); id++ {
		if eg, ok := mid.Node().Route(id); ok {
			t.Fatalf("crashed agent still routes to %d via %v", id, eg)
		}
	}
	reqs := mid.Stats().RequestsSent
	// Reboot at 40; RequestOnStart pulls the neighbor tables immediately,
	// so recovery completes far faster than a 15 s route timeout.
	n.RunUntil(42)
	if mid.Node().Failed() {
		t.Fatal("node still failed after reboot")
	}
	if mid.Stats().RequestsSent != reqs+1 {
		t.Fatalf("reboot sent %d requests, want exactly one more than %d", mid.Stats().RequestsSent, reqs)
	}
	if r := mid.Table().Get(c.ID); r == nil || r.Metric >= 16 {
		t.Fatalf("mid router did not relearn c within 2 s of reboot: %v", r)
	}
	// End-to-end proof: a → c across the rebooted router.
	got := 0
	c.OnDeliver = map[netsim.Kind]func(*netsim.Packet){
		netsim.KindData: func(*netsim.Packet) { got++ },
	}
	a.Schedule(45, "probe", func() {
		n.Inject(n.NewPacket(netsim.KindData, a.ID, c.ID, 100))
	})
	n.RunUntil(50)
	if got != 1 {
		t.Fatal("forwarding across the rebooted router did not resume")
	}
	if cnt := n.Counters(); cnt.Drops[netsim.DropNodeDown] == 0 {
		t.Fatalf("no node-down drops recorded while crashed: %+v", cnt.Drops)
	}
	if len(in.Timeline()) != 2 {
		t.Fatalf("timeline %v, want crash+reboot", in.Timeline())
	}
}

// TestMonitorTracksOutage: the monitor sees the loss and recovery edges
// of a flapped destination, measures a plausible outage duration, never
// reports a resurrection on a correct hold-down implementation, and
// samples ages bounded by the update period.
func TestMonitorTracksOutage(t *testing.T) {
	n := netsim.NewNetwork(11)
	mk := func(name string) *netsim.Node { return n.NewNode(name, nil) }
	a, b, d := mk("a"), mk("b"), mk("d")
	n.Connect(a, b, netsim.LinkConfig{Delay: 0.01})
	bd := n.Connect(b, d, netsim.LinkConfig{Delay: 0.01})
	cfg := routing.Config{Profile: compressedProfile(10), Jitter: jitter.HalfSpread{Tp: 5}, Seed: 8}
	var agents []*routing.Agent
	for i, nd := range []*netsim.Node{a, b, d} {
		ag := routing.NewAgent(nd, cfg)
		ag.Start(0.1 + 0.3*float64(i))
		agents = append(agents, ag)
	}
	mon := NewMonitor([]netsim.NodeID{d.ID})
	mon.Observe(agents[0])
	in := NewInjector(2)
	in.FailLink(bd, 40)
	in.RestoreLink(bd, 80)
	mon.ScheduleSampling(10, 3, 120)
	mon.SampleAtFailures(in.FailureTimes())
	n.RunUntil(120)

	outs := mon.Outages()
	if len(outs) != 1 {
		t.Fatalf("outages = %+v, want exactly one", outs)
	}
	o := outs[0]
	if o.Router != a.ID || o.Dest != d.ID {
		t.Fatalf("outage endpoints wrong: %+v", o)
	}
	// Lost after the failure plus the 15 s timeout; regained after the
	// restore.
	if o.LostAt < 40 || o.LostAt > 65 {
		t.Errorf("LostAt = %.2f, want within timeout of the failure at 40", o.LostAt)
	}
	if o.RegainedAt < 80 || o.RegainedAt > 110 {
		t.Errorf("RegainedAt = %.2f, want shortly after the restore at 80", o.RegainedAt)
	}
	if mon.Resurrections() != 0 {
		t.Errorf("resurrections = %d, want 0", mon.Resurrections())
	}
	ages := mon.Ages()
	if len(ages) == 0 {
		t.Fatal("no age samples")
	}
	for _, age := range ages {
		if age < 0 || age > 15 {
			t.Fatalf("implausible sampled age %.2f (period 5, timeout 15)", age)
		}
	}
	st := mon.StalenessAtFailures()
	if len(st) != 1 {
		t.Fatalf("staleness samples = %v, want one (route was live at the failure)", st)
	}
	if st[0] < 0 || st[0] > 6 {
		t.Errorf("staleness at failure = %.2f, want within one refresh period-ish", st[0])
	}
	if av := mon.Availability(); math.IsNaN(av) || av <= 0 || av > 1 {
		t.Errorf("availability = %v", av)
	}
}
