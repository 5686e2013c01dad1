package experiments

import (
	"math"

	"routesync/internal/jitter"
	"routesync/internal/linkstate"
	"routesync/internal/netsim"
	"routesync/internal/rng"
	"routesync/internal/stats"
	"routesync/internal/trace"
)

// ExtLinkState demonstrates that the paper's mechanism is not specific to
// distance-vector protocols: link-state routers whose periodic LSA
// refreshes are re-armed only after flooding work drains (the natural
// implementation) fall into the same lock-step. N link-state routers
// share a LAN with per-LSA processing cost Tc; the figure tracks the
// spread of each round's origination times for low jitter (synchronizes)
// and Tp/2 jitter (does not).
func ExtLinkState(horizon float64, seed int64) *Result {
	const routers = 20
	if horizon == 0 {
		horizon = 3e5
	}
	const (
		tp = 121.0
		tc = 0.11
	)
	res := &Result{
		ID:    "ext_linkstate",
		Title: "link-state LSA refresh synchronization (same mechanism, different protocol)",
		Plot: trace.PlotOptions{
			XLabel: "time (s)", YLabel: "last-origination spread (s, log)", LogY: true,
		},
	}
	for _, pol := range []jitter.Policy{
		jitter.Uniform{Tp: tp, Tr: 0.1},
		jitter.HalfSpread{Tp: tp},
	} {
		net := netsim.NewNetwork(seed)
		offsets := rng.New(seed + 31)
		nodes := make([]*netsim.Node, routers)
		for i := range nodes {
			nodes[i] = net.NewNode("ls", &netsim.CPUConfig{Mode: netsim.CPUModeLegacy})
		}
		net.NewLAN(nodes, netsim.LANConfig{})
		last := make([]float64, routers)
		for i, nd := range nodes {
			i := i
			ag := linkstate.NewAgent(nd, linkstate.Config{
				RefreshPeriod: tp,
				Jitter:        pol,
				PrepareCost:   tc,
				ProcessCost:   tc,
				Seed:          seed,
			})
			ag.OnSend = func(t float64) { last[i] = t }
			// Unsynchronized start: random phases over one period (the
			// model's §4 initial condition — equally-spaced offsets would
			// be the most anti-clustered start and suppress nucleation).
			ag.Start(offsets.Uniform(0, tp))
		}

		// Sample the spread of the routers' most recent originations: all
		// within ~N·Tc of each other means one synchronized cluster; ~Tp
		// apart means dispersed phases. (Per-round send indices drift
		// between cluster members and loners, so index-aligned spreads
		// would mislead.)
		ser := stats.Series{Name: pol.String()}
		sampleEvery := 5 * tp
		for t := sampleEvery; t <= horizon; t += sampleEvery {
			net.RunUntil(t)
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, v := range last {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
			spread := hi - lo
			if spread <= 0 {
				spread = 1e-6
			}
			ser.Append(t, spread)
		}
		res.Series = append(res.Series, ser)
		if ser.Len() > 0 {
			first, final := ser.Y[0], ser.Y[ser.Len()-1]
			locked := final <= float64(routers)*tc
			res.Notef("%s: last-origination spread %.3gs → %.3gs (%s)",
				pol, first, final, lockWord(locked))
		}
	}
	res.Notef("the coupled refresh timer (re-armed after flooding work) reproduces the paper's clustering on a link-state protocol; OSPF's LSA refresh needs the same jitter discipline")
	return res
}

func lockWord(locked bool) string {
	if locked {
		return "synchronized"
	}
	return "unsynchronized"
}
