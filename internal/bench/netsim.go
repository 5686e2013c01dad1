package bench

import (
	"testing"

	"routesync/internal/experiments"
	"routesync/internal/netsim"
)

// NetsimForward measures the packet-forwarding hot path: one op injects a
// packet at one end of a five-node chain and runs it to delivery — four
// store-and-forward hops, each a serialization event plus an arrival
// event. With the slot-pooled packet lifecycle, ring-buffered in-flight
// queues and hoisted arrival closures the steady state runs at
// 0 allocs/op and 0 B/op: the packet slot released at delivery is the
// slot the next op draws.
func NetsimForward(b *testing.B) {
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

// The scenario benchmarks below share one shape: build and warm the
// scenario off the clock, make each op one simulated second
// (RunUntil(now+1)), and rebuild — untimed — whenever the next window
// would pass the horizon. Measuring warm windows instead of whole runs
// makes the 0 allocs/op pool discipline a gateable number: convergence
// transients (tables, scratch and pools growing to their high-water
// marks) happen during the untimed warmup.

// NetsimScale measures one steady-state second of the ext_netscale
// scenario — `routers` routers of real periodic routing updates plus the
// crossing ping stream — on k logical processes. The scenario is built
// and run 400 simulated seconds off the clock: periodic-only good news
// crosses one hop per period, so full table convergence takes several
// periods times the domain diameter. Each op is then RunUntil(now+1), a
// window of periodic updates, pings and (for k ≥ 2) barrier exchanges.
// With the pooled packet path this is 0 allocs/op, and the K=1 vs K=n
// ns/op ratio in BENCH_*.json is the engine's speedup on the recording
// machine (see num_cpu).
func NetsimScale(b *testing.B, routers, k int) {
	const horizon, warmup = 700.0, 400.0
	build := func() *experiments.NetScaleScenario {
		sc := experiments.BuildNetScale(routers, 25, k, 1, horizon, nil)
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

// NetsimChurn measures one steady-state second of the ext_churn scenario
// — every router speaking the compressed periodic protocol while the
// fault layer flaps backbone links and crash/reboots interior routers —
// on k logical processes. The monitor-free builder keeps measurement
// bookkeeping out of the measured region; the 400-second untimed warmup
// covers convergence and enough fault cycles to reach every high-water
// mark, so each measured window exercises triggered updates, hold-down
// and crash recovery — the faults stay active until horizon−40 — on
// warm pools at 0 allocs/op.
func NetsimChurn(b *testing.B, k int) {
	pol := experiments.ChurnPolicy{Triggered: true, HoldDown: 20}
	const horizon, warmup = 700.0, 400.0
	build := func() *experiments.ChurnScenario {
		sc := experiments.BuildChurnBench(6, 8, k, 1, 40, pol, horizon, nil)
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

// NetsimLowLookahead measures one steady-state second of the metro-LAN
// scenario — broadcast segments joined by 100 µs bridges, the lookahead
// regime where bounded windows are smallest — on k logical processes, at
// 0 allocs/op on warm pools (outboxes and the packet pool reach their
// high-water marks during the untimed warmup).
func NetsimLowLookahead(b *testing.B, k int) {
	const horizon, warmup = 1400.0, 600.0
	build := func() *experiments.MetroLANScenario {
		sc := experiments.BuildMetroLAN(8, 6, k, 1, horizon, nil)
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

// NetsimExchange measures the partition boundary machinery specifically:
// a small (100-router) instance of the scale scenario on k ≥ 2 logical
// processes, where each one-second op crosses dozens of YAWNS barriers
// (the backbone lookahead is 10 ms). Outboxes drain in place and every
// boundary arrival rides a pooled slot with a pre-built closure, so warm
// windows exchange their whole batch at 0 allocs/op.
func NetsimExchange(b *testing.B, k int) {
	const horizon, warmup = 700.0, 400.0
	build := func() *experiments.NetScaleScenario {
		sc := experiments.BuildNetScale(100, 25, k, 1, horizon, nil)
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
