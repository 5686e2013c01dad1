package experiments

import (
	"routesync/internal/des"
	"routesync/internal/jitter"
	"routesync/internal/netsim"
	"routesync/internal/routing"
	"routesync/internal/workload"
)

// The metro-LAN scenario is the low-lookahead stress case for the
// partition engine: broadcast segments joined by ~100 µs bridges, so the
// conservative engine's window size (the lookahead) is four orders of
// magnitude below the routing-protocol period that actually spaces the
// cross-segment traffic, and a run pays a barrier per 100 µs of progress
// near every event cluster. BenchmarkNetsimLowLookahead in internal/bench
// (→ out/BENCH_*.json) times this build; its K-invariance is tested in
// internal/experiments.

// MetroLANScenario is one built instance of the metro-LAN scenario,
// exposed so tests and the benchmark harness run exactly the same thing.
type MetroLANScenario struct {
	Net    *netsim.Network
	Pinger *workload.Pinger
	// Agents lists the attached routing agents (leak audits sum their
	// pending-packet counts).
	Agents []*routing.Agent
}

// BuildMetroLAN wires the metro-LAN scenario — segments broadcast LANs
// of perSeg routers each, bridged gateway-to-gateway, every router
// speaking a compressed periodic protocol, partitioned into k logical
// processes along segment boundaries — with an end-to-end ping stream
// between interior hosts of segment 0 and the antipodal segment. It does
// not run it.
func BuildMetroLAN(segments, perSeg, k int, seed int64, horizon float64, obs des.Observer) *MetroLANScenario {
	if segments < 2 || perSeg < 3 {
		panic("experiments: BuildMetroLAN needs at least 2 segments of 3 hosts")
	}
	if k < 1 {
		k = 1
	}
	if k > segments {
		k = segments // one segment is the smallest unit of parallelism
	}

	nw := netsim.NewNetwork(seed)
	if obs != nil {
		nw.SetObserver(obs)
	}
	topo := nw.BuildMetroLAN(netsim.MetroLANConfig{
		Segments:    segments,
		HostsPerSeg: perSeg,
		CPU:         &netsim.CPUConfig{Mode: netsim.CPUModeLegacy, InputQueueCap: 4},
	})
	nw.Partition(k, netsim.OwnerByBlock(perSeg, segments, k))

	sc := &MetroLANScenario{Net: nw}
	// Compressed protocol (5 s period) so convergence and several full
	// periods fit a short horizon; every router speaks it, gateways
	// included, since the bridges are the only inter-segment paths.
	cfg := routing.Config{
		Profile: routing.Profile{
			Name: "rip-compressed", Period: 5, Infinity: 16,
			TimeoutFactor: 3, GCFactor: 5,
			TriggeredUpdates: true, SplitHorizon: true,
		},
		Jitter: jitter.HalfSpread{Tp: 5},
		Costs:  routing.DefaultCosts(),
	}
	for s := 0; s < segments; s++ {
		for i := 0; i < perSeg; i++ {
			nd := topo.Hosts[s][i]
			agCfg := cfg
			agCfg.Seed = seed*31 + int64(nd.ID)
			ag := routing.NewAgent(nd, agCfg)
			// Staggered steady-state starts spread over one period, so the
			// periodic bursts are desynchronized the way the paper's jitter
			// leaves them.
			ag.Start(1 + 0.101*float64(len(sc.Agents)))
			sc.Agents = append(sc.Agents, ag)
		}
	}

	src := topo.Hosts[0][perSeg/2]
	dst := topo.Hosts[segments/2][perSeg/2]
	interval := 1.01
	count := int((horizon - 8) / interval)
	if count < 10 {
		count = 10
	}
	sc.Pinger = workload.NewPinger(src, dst, workload.PingConfig{
		Interval: interval,
		Count:    count,
		Timeout:  2,
	})
	sc.Pinger.Start(5)
	return sc
}
