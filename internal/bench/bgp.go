package bench

import (
	"testing"

	"routesync/internal/experiments"
	"routesync/internal/jitter"
	"routesync/internal/netsim"
	"routesync/internal/pathvector"
)

// PathVectorUpdate measures the path-vector update hot path in
// isolation: two ASes exchanging full refresh rounds through per-peer
// MRAI batching. One op is one refresh period — each side fires its
// periodic timer, encodes its adj-out into the kernel's scratch buffer,
// the peer decodes, runs best-path selection, and the MRAI timer batches
// and flushes the resulting advertisements. Adj-in slots keep their run
// of the agent's hop arena across re-advertisements, the
// dirty/advertised sets are single-word bitsets, and the flush encodes
// from the arena into the kernel scratch, so warm rounds run at
// 0 allocs/op — the number benchguard gates.
func PathVectorUpdate(b *testing.B) {
	const warmup, period = 200.0, 30.0
	net := netsim.NewNetwork(1)
	cpu := &netsim.CPUConfig{Mode: netsim.CPUModeLegacy, InputQueueCap: 64}
	na := net.NewNode("asA", cpu)
	nb := net.NewNode("asB", cpu)
	l := net.Connect(na, nb, netsim.LinkConfig{Delay: 0.01, Bandwidth: 10e6, QueueCap: 64})
	origins := pathvector.NewOriginSet([]netsim.NodeID{na.ID, nb.ID})
	for i, nd := range []*netsim.Node{na, nb} {
		ag := pathvector.NewAgent(nd, pathvector.Config{
			Origins:       origins,
			Peers:         []pathvector.PeerConfig{{Link: l, Rel: pathvector.RelPeer}},
			RefreshPeriod: period,
			Jitter:        jitter.Uniform{Tp: period, Tr: period / 2},
			MRAI:          2,
			MRAIJitter:    jitter.Uniform{Tp: 2, Tr: 1},
			PrepareCost:   0.002,
			ProcessCost:   0.0005,
			Seed:          int64(i) + 1,
		})
		ag.Start(1)
	}
	net.RunUntil(warmup)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.RunUntil(net.Now() + period)
	}
}

// NetsimBGP measures one steady-state second of the ext_bgp scenario —
// `ases` path-vector speakers on a preferential-attachment AS graph,
// MRAI 5 s with uniform jitter — on k logical processes. The 400-second
// untimed warmup covers initial convergence, the probe withdrawal at
// 0.45·horizon and the path-exploration storm it triggers, so measured
// windows are steady refresh + MRAI traffic on warm pools; the flush
// recorders are pre-sized for the whole horizon, so recording never
// allocates. As with NetsimScale, the K=1 vs K=n ns/op ratio is the
// engine's speedup on the AS-level workload.
//
// Every K runs at 0 allocs/op. Valley-free export is asymmetric —
// providers advertise full tables to customers every period while
// non-origin stubs export nothing back — so packet slots migrate one way
// across a partition boundary; the window barrier returns them to their
// home pool (pktPool.repatriate), so the sending LP stops minting
// replacements. B/op is small but not zero: pools and arenas still reach
// new high-water marks now and then inside the timed loop.
func NetsimBGP(b *testing.B, ases, k int) {
	const horizon, warmup = 700.0, 400.0
	build := func() *experiments.BGPScenario {
		sc := experiments.BuildBGP(ases, k, 5, "uniform", 1, horizon, nil)
		sc.Net.RunUntil(warmup)
		return sc
	}
	sc := build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sc.Net.Now()+1 > sc.Horizon {
			b.StopTimer()
			sc = build()
			b.StartTimer()
		}
		sc.Net.RunUntil(sc.Net.Now() + 1)
	}
}
