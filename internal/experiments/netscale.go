package experiments

import (
	"math"
	"sort"

	"routesync/internal/des"
	"routesync/internal/jitter"
	"routesync/internal/netsim"
	"routesync/internal/routing"
	"routesync/internal/stats"
	"routesync/internal/trace"
	"routesync/internal/workload"
)

// ext_netscale scales the packet-level simulator to thousands of routers
// on the conservative parallel engine: a two-level AS-like topology whose
// domains run real periodic routing updates (RIP profile, legacy CPUs,
// jittered timers) while an end-to-end ping stream crosses the backbone.
// The run is partitioned into K logical processes along domain
// boundaries; by the engine's determinism guarantee the emitted figures
// are bit-identical for every K, so the CSV carries only simulation
// metrics — wall-time and speedup measurements live in
// BenchmarkNetsimScale in internal/bench (→ out/BENCH_*.json), which runs
// the same scenario through BuildNetScale.

// NetScaleConfig parameterizes ExtNetScale.
type NetScaleConfig struct {
	// Sizes lists the router counts to sweep (rounded down to whole
	// domains); nil means 500 → 5000.
	Sizes []int
	// RoutersPerAS sets the domain size; zero means 25.
	RoutersPerAS int
	// Horizon is the simulated duration per size; zero means 150 s
	// (five RIP periods).
	Horizon float64
	// Jobs is the worker budget (0: one per CPU). Cells — one per size —
	// run concurrently first, and workers left over when there are fewer
	// cells than workers split each cell into logical processes. Results
	// do not depend on it; memory does, since up to min(Jobs, cells)
	// scenarios are alive at once.
	Jobs int
	// Seed drives topology-independent randomness (timer jitter streams).
	Seed int64
	// Obs observes every partition's simulator (must be safe for
	// concurrent use; the runner's metrics observer is).
	Obs des.Observer
}

// NetScaleScenario is one built instance of the scale scenario, exposed
// so the benchmark harness can time exactly what the experiment runs.
type NetScaleScenario struct {
	Net    *netsim.Network
	Pinger *workload.Pinger
	// SendTimes[i] collects agent i's update transmissions; each slice is
	// only appended from the logical process owning that agent's router
	// and is pre-sized for the horizon, so recording never allocates
	// during the run.
	SendTimes [][]float64
	// Agents lists the attached routing agents (leak audits sum their
	// pending-packet counts).
	Agents []*routing.Agent
	// Routers is the total router count (domains × RoutersPerAS).
	Routers int
	// NumAS is the domain count.
	NumAS int
	// Horizon is the configured run length; call Run to execute it.
	Horizon float64
}

// Run executes the scenario to its horizon.
func (s *NetScaleScenario) Run() { s.Net.RunUntil(s.Horizon) }

// BuildNetScale wires the scale scenario for about `routers` routers
// (rounded down to whole domains of perAS) partitioned into k logical
// processes, with agents, ping workload and send recorders attached, but
// does not run it.
//
// Routing runs hierarchically, as real internetworks of this size do:
// each domain's non-gateway routers speak the periodic protocol among
// themselves (gateways hear and discard the updates — modelling the
// boundary where the interior protocol stops), while inter-domain
// forwarding state toward the two measured hosts is installed statically
// via reverse BFS. Every update is still a real packet contending for
// real links and legacy router CPUs, so the scenario exhibits the
// paper's loss mechanism at scale without Θ(N²) routing state.
func BuildNetScale(routers, perAS, k int, seed int64, horizon float64, obs des.Observer) *NetScaleScenario {
	if perAS < 3 {
		panic("experiments: BuildNetScale needs domains of at least 3 routers")
	}
	numAS := routers / perAS
	if numAS < 2 {
		numAS = 2
	}
	if k < 1 {
		k = 1
	}
	if k > numAS {
		k = numAS // one domain is the smallest unit of parallelism
	}

	nw := netsim.NewNetwork(seed)
	if obs != nil {
		nw.SetObserver(obs)
	}
	topo := nw.BuildTwoLevelAS(netsim.TwoLevelASConfig{
		NumAS:        numAS,
		RoutersPerAS: perAS,
		IntraLink:    netsim.LinkConfig{Delay: 0.002, Bandwidth: 10e6, QueueCap: 16},
		InterLink:    netsim.LinkConfig{Delay: 0.01, Bandwidth: 1.5e6, QueueCap: 32},
		CPU:          &netsim.CPUConfig{InputQueueCap: 4},
		Chords:       2,
	})
	// The backbone is a ring (plus skip links), so domain numAS-1 sits
	// next to domain 0; the antipodal domain gives the pings a path whose
	// hop count actually grows with N.
	srcRouter := topo.Routers[0][perAS/2]
	dstRouter := topo.Routers[numAS/2][perAS/2]
	hostA := nw.NewNode("hostA", nil)
	hostB := nw.NewNode("hostB", nil)
	nw.Connect(hostA, srcRouter, netsim.LinkConfig{Delay: 0.001, Bandwidth: 10e6, QueueCap: 16})
	nw.Connect(hostB, dstRouter, netsim.LinkConfig{Delay: 0.001, Bandwidth: 10e6, QueueCap: 16})
	// Forwarding state toward the measured hosts only: Θ(N), not the
	// all-pairs Θ(N²) a full InstallStaticRoutes would cost at 5000
	// routers.
	nw.InstallRoutesToward([]netsim.NodeID{hostA.ID, hostB.ID})

	// Partition along domain boundaries; each host joins the partition of
	// the router it hangs off, so its access link never crosses LPs.
	numRouters := numAS * perAS
	base := netsim.OwnerByBlock(perAS, numAS, k)
	nw.Partition(k, func(id netsim.NodeID) int {
		switch {
		case int(id) < numRouters:
			return base(id)
		case id == hostA.ID:
			return base(srcRouter.ID)
		default:
			return base(dstRouter.ID)
		}
	})

	sc := &NetScaleScenario{
		Net:     nw,
		Routers: numRouters,
		NumAS:   numAS,
		Horizon: horizon,
	}
	cfg := routing.Config{
		Profile: routing.RIP(),
		Jitter:  jitter.HalfSpread{Tp: routing.RIP().Period},
		Costs:   routing.DefaultCosts(),
	}
	// Half-spread jitter draws intervals from [Tp/2, Tp), so an agent
	// sends at most horizon/(Tp/2) updates; sizing the recorders for that
	// up front keeps the run itself allocation-free.
	sendCap := int(horizon/(cfg.Profile.Period/2)) + 4
	for a := 0; a < numAS; a++ {
		for i := 1; i < perAS; i++ { // gateways (i == 0) stay passive
			nd := topo.Routers[a][i]
			agCfg := cfg
			agCfg.Seed = seed*31 + int64(nd.ID)
			ag := routing.NewAgent(nd, agCfg)
			sc.Agents = append(sc.Agents, ag)
			rec := make([]float64, 0, sendCap)
			sc.SendTimes = append(sc.SendTimes, rec)
			slot := len(sc.SendTimes) - 1
			ag.OnSend = func(at float64, trig bool) {
				sc.SendTimes[slot] = append(sc.SendTimes[slot], at)
			}
			// Synchronized start — the paper's post-restart condition the
			// jitter must break up.
			ag.Start(1)
		}
	}

	interval := 0.503
	count := int((horizon - 10) / interval)
	if count < 10 {
		count = 10
	}
	sc.Pinger = workload.NewPinger(hostA, hostB, workload.PingConfig{
		Interval: interval,
		Count:    count,
		Timeout:  2,
	})
	sc.Pinger.Start(5)
	return sc
}

// SyncClusterFraction measures timer synchronization at the end of a
// run: the largest fraction of routers whose final update transmissions
// fall inside any window-second interval of phase (mod period). 1 means
// fully synchronized, ~window/period means uniformly spread.
func (s *NetScaleScenario) SyncClusterFraction(period, window float64) float64 {
	var phases []float64
	for _, ts := range s.SendTimes {
		if len(ts) == 0 {
			continue
		}
		phases = append(phases, math.Mod(ts[len(ts)-1], period))
	}
	if len(phases) == 0 {
		return 0
	}
	sort.Float64s(phases)
	// Circular sliding window via duplication.
	n := len(phases)
	ext := append(phases, make([]float64, n)...)
	for i := 0; i < n; i++ {
		ext[n+i] = phases[i] + period
	}
	best, lo := 0, 0
	for hi := 0; hi < 2*n; hi++ {
		for ext[hi]-ext[lo] > window {
			lo++
		}
		if c := hi - lo + 1; c > best && c <= n {
			best = c
		}
	}
	return float64(best) / float64(n)
}

// UpdatesPerRouter is the mean number of update transmissions per active
// router over the run.
func (s *NetScaleScenario) UpdatesPerRouter() float64 {
	if len(s.SendTimes) == 0 {
		return 0
	}
	total := 0
	for _, ts := range s.SendTimes {
		total += len(ts)
	}
	return float64(total) / float64(len(s.SendTimes))
}

// ExtNetScale sweeps the scenario over cfg.Sizes and reports, per size:
// end-to-end ping loss, median RTT, update volume, and the timer
// synchronization metric. All series are independent of cfg.Jobs.
func ExtNetScale(cfg NetScaleConfig) *Result {
	if cfg.Sizes == nil {
		cfg.Sizes = []int{500, 1000, 2000, 5000}
	}
	if cfg.RoutersPerAS == 0 {
		cfg.RoutersPerAS = 25
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = 150
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	type cellOut struct {
		routers, domains   int
		loss, rtt, upd, cl float64
		forwarded          uint64
	}
	outs := runCells(len(cfg.Sizes), cfg.Jobs, func(i, k int) cellOut {
		sc := BuildNetScale(cfg.Sizes[i], cfg.RoutersPerAS, k, cfg.Seed, cfg.Horizon, cfg.Obs)
		sc.Run()
		pr := sc.Pinger.Result()
		return cellOut{
			routers:   sc.Routers,
			domains:   sc.NumAS,
			loss:      pr.LossRate(),
			rtt:       pr.RTTQuantile(0.5),
			upd:       sc.UpdatesPerRouter(),
			cl:        sc.SyncClusterFraction(routing.RIP().Period, 1),
			forwarded: sc.Net.Counters().Forwarded,
		}
	})

	res := &Result{
		ID:    "ext_netscale",
		Title: "packet-level scale sweep on the parallel engine (K logical processes, K-invariant results)",
		Plot: trace.PlotOptions{
			XLabel: "routers", YLabel: "value",
		},
	}
	loss := stats.Series{Name: "ping loss rate"}
	rtt := stats.Series{Name: "ping p50 RTT (s)"}
	upd := stats.Series{Name: "updates per router"}
	sync := stats.Series{Name: "largest 1s update cluster (fraction)"}
	for _, o := range outs {
		n := float64(o.routers)
		loss.Append(n, o.loss)
		rtt.Append(n, o.rtt)
		upd.Append(n, o.upd)
		sync.Append(n, o.cl)
		// No K, wall time, or lookahead here: artifacts must be identical
		// for every -jobs value (the partition engine guarantees the data
		// is, and lookahead is +Inf at K=1).
		res.Notef("N=%d (%d domains): ping loss %.2f%%, p50 RTT %.1f ms, %.1f updates/router, largest 1s cluster %.0f%%, %d pkts forwarded",
			o.routers, o.domains, 100*o.loss, 1e3*o.rtt, o.upd, 100*o.cl, o.forwarded)
	}
	res.Series = []stats.Series{loss, rtt, upd, sync}
	return res
}
