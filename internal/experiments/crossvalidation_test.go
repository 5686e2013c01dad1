package experiments

import (
	"math"
	"testing"

	"routesync/internal/jitter"
	"routesync/internal/netsim"
	"routesync/internal/rng"
	"routesync/internal/routing"
)

// TestPacketSubstrateSynchronizesLikeModel is the keystone
// cross-validation: the full packet-level distance-vector implementation
// (real wire messages over a simulated LAN, CPU-costed processing, the
// paper's reset-after-processing timers) synchronizes from random phases
// on the same timescale as the abstract Periodic Messages model —
// without sharing any code path with it beyond the DES kernel.
func TestPacketSubstrateSynchronizesLikeModel(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level LAN run (~25 s)")
	}
	const (
		routers = 20
		tp      = 121.0
		tc      = 0.11
		horizon = 2.5e5
	)
	net := netsim.NewNetwork(7)
	offsets := rng.New(7 + 31)
	nodes := make([]*netsim.Node, routers)
	for i := range nodes {
		nodes[i] = net.NewNode("dv", &netsim.CPUConfig{})
	}
	net.NewLAN(nodes, netsim.LANConfig{})
	last := make([]float64, routers)
	for i, nd := range nodes {
		i := i
		ag := routing.NewAgent(nd, routing.Config{
			Profile: routing.Profile{
				Name: "dv121", Period: tp, Infinity: 16,
				TimeoutFactor: 6, GCFactor: 10,
			},
			Jitter: jitter.Uniform{Tp: tp, Tr: 0.1},
			Costs: routing.Costs{
				MinPrepare: tc, MinProcess: tc,
				PerRoutePrepare: 0, PerRouteProcess: 0,
			},
			Seed: 7,
		})
		ag.OnSend = func(at float64, trig bool) {
			if !trig {
				last[i] = at
			}
		}
		ag.Start(offsets.Uniform(0, tp))
	}
	net.RunUntil(horizon)

	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range last {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	spread := hi - lo
	// Fully synchronized: every router's latest periodic update left
	// within one shared busy window (N·Tc = 2.2 s, tolerance for the
	// triggered-update bookkeeping).
	if spread > routers*tc*2 {
		t.Fatalf("packet-level DV LAN did not synchronize: final send spread %.2f s "+
			"(abstract model synchronizes well inside %.0f s at these parameters)",
			spread, horizon)
	}
}
