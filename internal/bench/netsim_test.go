package bench

import (
	"fmt"
	"testing"

	"routesync/internal/experiments"
	"routesync/internal/jitter"
	"routesync/internal/netsim"
	"routesync/internal/pathvector"
	"routesync/internal/routing"
)

// BenchmarkNetsimForward measures the packet-forwarding hot path: one op
// injects a packet at one end of a five-node chain and runs it to
// delivery — four store-and-forward hops, each a serialization event
// plus an arrival event. With the slot-pooled packet lifecycle,
// ring-buffered in-flight queues and hoisted arrival closures the steady
// state runs at 0 allocs/op and 0 B/op: the packet slot released at
// delivery is the slot the next op draws.
func BenchmarkNetsimForward(b *testing.B) {
	net := netsim.NewNetwork(1)
	nodes := net.BuildChain(
		[]string{"src", "r1", "r2", "r3", "dst"}, nil,
		netsim.LinkConfig{Delay: 0.0005, Bandwidth: 1e9, QueueCap: 64},
	)
	src, dst := nodes[0], nodes[len(nodes)-1]
	// Warm the pools: the first packet ever mints its slot, and the event
	// pool and in-flight rings grow to their working depth.
	warm := net.NewPacket(netsim.KindData, src.ID, dst.ID, 64)
	net.Inject(warm)
	net.RunUntil(net.Now() + 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := net.NewPacket(netsim.KindData, src.ID, dst.ID, 64)
		net.Inject(pkt)
		net.RunUntil(net.Now() + 1)
	}
}

// BenchmarkPathVectorUpdate measures the path-vector update hot path in
// isolation: two ASes exchanging full refresh rounds through per-peer
// MRAI batching. One op is one refresh period — each side fires its
// periodic timer, encodes its adj-out straight into the update packet's
// payload, the peer decodes, runs best-path selection, and the MRAI
// timer batches and flushes the resulting advertisements. Adj-in slots
// keep their run of the agent's hop arena across re-advertisements, the
// dirty/advertised sets are single-word bitsets, and the flush encodes
// from the arena into the pooled packet's own payload arena, so warm
// rounds run at 0 allocs/op — the number benchguard gates.
func BenchmarkPathVectorUpdate(b *testing.B) {
	const warmup, period = 200.0, 30.0
	net := netsim.NewNetwork(1)
	cpu := &netsim.CPUConfig{InputQueueCap: 64}
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

// benchMedium is a medium that transmits nothing: the routing row
// exercises the table alone.
type benchMedium struct{ name string }

func (*benchMedium) Transmit(*netsim.Packet, *netsim.Node, netsim.NodeID) {}

// BenchmarkRoutingUpdateCycle measures the distance-vector update cycle
// on a converged table, off the simulator: one op applies a neighbor's
// full-table update straight from its wire bytes, writes the router's
// own update for the other medium into a buffer (RIP's split horizon),
// and runs the route-aging sweep one simulated second
// later. The sweep walks the table only once a route could have aged, so
// most ops skip it, as an agent's periodic sweeps do. Warm ops run at
// 0 allocs/op.
func BenchmarkRoutingUpdateCycle(b *testing.B) {
	for _, routes := range []int{200} {
		b.Run(fmt.Sprintf("routes=%d", routes), func(b *testing.B) {
			p := routing.RIP()
			timeout, gc := p.TimeoutFactor*p.Period, p.GCFactor*p.Period
			in, out := &benchMedium{"in"}, &benchMedium{"out"}
			msg := routing.Message{Router: 1}
			for d := 2; d <= routes; d++ {
				msg.Entries = append(msg.Entries, routing.Entry{Dest: netsim.NodeID(d), Metric: uint32(1 + d%5)})
			}
			upd, err := routing.EncodeInto(nil, msg)
			if err != nil {
				b.Fatal(err)
			}
			tb := routing.NewTable(p.Infinity)
			tb.SetLocal(0, 0)
			var enc []byte
			now := 0.0
			cycle := func() {
				now++
				tb.ApplyCost(upd, in, now, 1)
				for u := tb.NewUpdate(0, false, out, p.SplitHorizon, p.PoisonReverse, 0); u.More(); {
					enc = u.Append(enc[:0])
				}
				tb.Expire(now, timeout, gc)
			}
			cycle()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
		})
	}
}

// The scenario benchmarks below share one shape: build and warm the
// scenario off the clock, make each op one simulated second
// (RunUntil(now+1)), and rebuild — untimed — whenever the next window
// would pass the horizon. Measuring warm windows instead of whole runs
// makes the 0 allocs/op pool discipline a gateable number: convergence
// transients (tables, scratch and pools growing to their high-water
// marks) happen during the untimed warmup.
func benchWindows(b *testing.B, warmup, horizon float64, build func(horizon float64) *netsim.Network) {
	start := func() *netsim.Network {
		net := build(horizon)
		net.RunUntil(warmup)
		return net
	}
	net := start()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if net.Now()+1 > horizon {
			b.StopTimer()
			net = start()
			b.StartTimer()
		}
		net.RunUntil(net.Now() + 1)
	}
}

// BenchmarkNetsimScale measures one steady-state second of the
// ext_netscale scenario — N routers of real periodic routing updates
// plus the crossing ping stream — on K logical processes. The scenario
// runs 400 simulated seconds off the clock: periodic-only good news
// crosses one hop per period, so full table convergence takes several
// periods times the domain diameter. Each op is then a window of
// periodic updates, pings and (for K ≥ 2) barrier exchanges. With the
// pooled packet path this is 0 allocs/op, and the K=1 vs K=n ns/op ratio
// in BENCH_*.json is the engine's speedup on the recording machine (see
// num_cpu).
func BenchmarkNetsimScale(b *testing.B) {
	for _, routers := range []int{500, 5000} {
		for _, k := range []int{1, 2, 8} {
			b.Run(fmt.Sprintf("N=%d/K=%d", routers, k), func(b *testing.B) {
				benchWindows(b, 400, 700, func(horizon float64) *netsim.Network {
					return experiments.BuildNetScale(routers, 25, k, 1, horizon, nil).Net
				})
			})
		}
	}
}

// BenchmarkNetsimChurn measures one steady-state second of the ext_churn
// scenario — every router speaking the compressed periodic protocol
// while the fault layer flaps backbone links and crash/reboots interior
// routers — on K logical processes. The monitor-free builder keeps
// measurement bookkeeping out of the measured region; the 400-second
// untimed warmup covers convergence and enough fault cycles to reach
// every high-water mark, so each measured window exercises triggered
// updates, hold-down and crash recovery — the faults stay active until
// horizon−40 — on warm pools at 0 allocs/op.
func BenchmarkNetsimChurn(b *testing.B) {
	pol := experiments.ChurnPolicy{Triggered: true, HoldDown: 20}
	for _, k := range []int{1, 2, 6} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			benchWindows(b, 400, 700, func(horizon float64) *netsim.Network {
				return experiments.BuildChurnBench(6, 8, k, 1, 40, pol, horizon, nil).Net
			})
		})
	}
}

// BenchmarkNetsimBGP measures one steady-state second of the ext_bgp
// scenario — 1000 path-vector speakers on a preferential-attachment AS
// graph, MRAI 5 s with uniform jitter — on K logical processes. The
// 400-second untimed warmup covers initial convergence, the probe
// withdrawal at 0.45·horizon and the path-exploration storm it
// triggers, so measured windows are steady refresh + MRAI traffic on
// warm pools; the flush recorders are pre-sized for the whole horizon,
// so recording never allocates. As with NetsimScale, the K=1 vs K=n
// ns/op ratio is the engine's speedup on the AS-level workload.
//
// Every K runs at 0 allocs/op. Valley-free export is asymmetric —
// providers advertise full tables to customers every period while
// non-origin stubs export nothing back — so packet slots migrate one way
// across a partition boundary; the window barrier returns them to their
// home pool (pktPool.repatriate), so the sending LP stops minting
// replacements. B/op is small but not zero: pools and arenas still reach
// new high-water marks now and then inside the timed loop.
func BenchmarkNetsimBGP(b *testing.B) {
	for _, k := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("N=1000/K=%d", k), func(b *testing.B) {
			benchWindows(b, 400, 700, func(horizon float64) *netsim.Network {
				return experiments.BuildBGP(1000, k, 5, "uniform", 1, horizon, nil).Net
			})
		})
	}
}

// BenchmarkNetsimExchange measures the partition boundary machinery
// specifically: a small (100-router) instance of the scale scenario on
// K ≥ 2 logical processes, where each one-second op crosses dozens of
// YAWNS barriers (the backbone lookahead is 10 ms). Outboxes drain in
// place and every boundary arrival rides a pooled slot with a pre-built
// closure, so warm windows exchange their whole batch at 0 allocs/op.
func BenchmarkNetsimExchange(b *testing.B) {
	for _, k := range []int{2, 4} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			benchWindows(b, 400, 700, func(horizon float64) *netsim.Network {
				return experiments.BuildNetScale(100, 25, k, 1, horizon, nil).Net
			})
		})
	}
}

// BenchmarkNetsimLowLookahead measures one steady-state second of the
// metro-LAN scenario — broadcast segments joined by 100 µs bridges, the
// lookahead regime where bounded windows are smallest — on K logical
// processes, at 0 allocs/op on warm pools (outboxes and the packet pool
// reach their high-water marks during the untimed warmup). The mode=
// segment keeps the names matching the committed BENCH_*.json rows.
func BenchmarkNetsimLowLookahead(b *testing.B) {
	for _, k := range []int{1, 4} {
		b.Run(fmt.Sprintf("mode=conservative/K=%d", k), func(b *testing.B) {
			benchWindows(b, 600, 1400, func(horizon float64) *netsim.Network {
				return experiments.BuildMetroLAN(8, 6, k, 1, horizon, nil).Net
			})
		})
	}
}
