package experiments

import (
	"math"

	"routesync/internal/faults"
	"routesync/internal/jitter"
	"routesync/internal/netsim"
	"routesync/internal/routing"
	"routesync/internal/runner"
	"routesync/internal/stats"
	"routesync/internal/trace"
	"routesync/internal/workload"
)

// ext_churn measures routing-state freshness under sustained failure
// pressure: a two-level AS topology where every router (gateways
// included) runs the periodic protocol, while the fault layer flaps
// backbone links and crash/reboots interior routers on seeded
// exponential timelines. The age-of-information monitor rides the
// agents' route-change hooks at the two measured path endpoints and
// reports outage-duration tails, sampled route ages, and the staleness
// failures expose — swept over the link failure rate for each
// combination of hold-down and triggered-update policy.
//
// The run is partitioned into K logical processes along domain
// boundaries, and the flapped backbone links cross partitions for K ≥ 2;
// by the engine's determinism guarantee (property-tested in
// internal/faults) every emitted figure is bit-identical for any K, so
// the CSV carries only simulation metrics, never K or wall time.

// ChurnConfig parameterizes ExtChurn.
type ChurnConfig struct {
	// NumAS and RoutersPerAS set the topology; zero means 6 domains of 8.
	NumAS, RoutersPerAS int
	// MeanUps lists the mean link up-times (s) to sweep; nil means
	// {120, 60, 30}. Smaller means faster flapping.
	MeanUps []float64
	// Horizon is the simulated duration per run; zero means 400 s.
	Horizon float64
	// Jobs is the worker budget (0: one per CPU). Cells — one per
	// (policy, up-time) point — run concurrently first, and workers left
	// over when there are fewer cells than workers split each cell into
	// logical processes. Results do not depend on it; memory does, since
	// up to min(Jobs, cells) scenarios are alive at once.
	Jobs int
	// Seed drives every random stream: timer jitter and fault timelines.
	Seed int64
}

// ChurnPolicy is one point of the protocol-policy matrix the sweep
// crosses with the failure rate.
type ChurnPolicy struct {
	Triggered bool
	HoldDown  float64
}

// Label names the policy in series names and notes.
func (p ChurnPolicy) Label() string {
	t := "periodic-only"
	if p.Triggered {
		t = "triggered"
	}
	if p.HoldDown > 0 {
		return t + " + hold-down"
	}
	return t
}

// churnPolicies is the swept policy matrix: triggered updates on/off ×
// hold-down off/on (20 s, four compressed periods).
var churnPolicies = []ChurnPolicy{
	{Triggered: true, HoldDown: 0},
	{Triggered: true, HoldDown: 20},
	{Triggered: false, HoldDown: 0},
	{Triggered: false, HoldDown: 20},
}

// churnMeanDown is the mean link outage length (s) for every sweep
// point; only the up-time varies.
const churnMeanDown = 12

// churnProfile is the protocol under test: RIP's structure with all
// timers compressed 6× (5 s period, 15 s timeout, 25 s GC) so dozens of
// flap/recovery cycles fit a few-hundred-second run.
func churnProfile(p ChurnPolicy) routing.Profile {
	return routing.Profile{
		Name: "rip-compressed", Period: 5, Infinity: 16,
		TimeoutFactor: 3, GCFactor: 5,
		TriggeredUpdates: p.Triggered, SplitHorizon: true,
		HoldDown: p.HoldDown,
	}
}

// ChurnScenario is one built instance of the churn scenario, exposed so
// tests and the benchmark harness run exactly what the experiment runs.
type ChurnScenario struct {
	Net     *netsim.Network
	Pinger  *workload.Pinger
	Monitor *faults.Monitor
	Agents  []*routing.Agent
	// Horizon is the configured run length; call Run to execute it.
	Horizon float64
}

// Run executes the scenario to its horizon.
func (s *ChurnScenario) Run() { s.Net.RunUntil(s.Horizon) }

// churnLink finds the direct link between two nodes (the topology
// builder guarantees adjacent gateways have one).
func churnLink(a, b *netsim.Node) *netsim.Link {
	for _, m := range a.Media() {
		if l, ok := m.(*netsim.Link); ok && l.Peer(a) == b {
			return l
		}
	}
	panic("experiments: no link between nodes")
}

// BuildChurn wires the churn scenario — numAS domains of perAS routers,
// all running the compressed protocol with RequestOnStart recovery,
// partitioned into k logical processes — with flaps on alternating
// backbone ring links, crash/reboot churn on two interior routers, an
// end-to-end ping stream between interior routers of domains 0 and
// numAS/2, and the AoI monitor watching both path endpoints from every
// router. It does not run it.
//
// meanUp sets the mean up-time of both the flapped links and the
// churned routers; outage lengths are fixed (churnMeanDown) so the
// sweep varies only how often failures arrive.
func BuildChurn(numAS, perAS, k int, seed int64, meanUp float64, pol ChurnPolicy, horizon float64) *ChurnScenario {
	return buildChurn(numAS, perAS, k, seed, meanUp, pol, horizon, true)
}

// BuildChurnBench is BuildChurn without the age-of-information monitor:
// the same topology, agents, faults and ping stream, but no route-change
// observers or sampling events. The benchmark harness uses it to measure
// the simulator itself — monitor bookkeeping appends to result slices on
// every route change, which would show up as measurement allocations.
func BuildChurnBench(numAS, perAS, k int, seed int64, meanUp float64, pol ChurnPolicy, horizon float64) *ChurnScenario {
	return buildChurn(numAS, perAS, k, seed, meanUp, pol, horizon, false)
}

func buildChurn(numAS, perAS, k int, seed int64, meanUp float64, pol ChurnPolicy, horizon float64, withMonitor bool) *ChurnScenario {
	if numAS < 4 || perAS < 3 {
		panic("experiments: BuildChurn needs at least 4 domains of 3 routers")
	}
	if k < 1 {
		k = 1
	}
	if k > numAS {
		k = numAS // one domain is the smallest unit of parallelism
	}

	nw := netsim.NewNetwork(seed)
	topo := nw.BuildTwoLevelAS(netsim.TwoLevelASConfig{
		NumAS:        numAS,
		RoutersPerAS: perAS,
		IntraLink:    netsim.LinkConfig{Delay: 0.002, Bandwidth: 10e6, QueueCap: 16},
		InterLink:    netsim.LinkConfig{Delay: 0.012, Bandwidth: 1.5e6, QueueCap: 32},
		CPU:          &netsim.CPUConfig{InputQueueCap: 4},
		Chords:       1,
	})
	nw.Partition(k, netsim.OwnerByBlock(perAS, numAS, k))

	sc := &ChurnScenario{
		Net:     nw,
		Horizon: horizon,
	}

	// Unlike ext_netscale's static inter-domain routes, every router here
	// speaks the protocol — the whole point is watching the protocol
	// repair state the faults destroy — so gateways run agents too and no
	// static routes are installed.
	cfg := routing.Config{
		Profile:        churnProfile(pol),
		Jitter:         jitter.HalfSpread{Tp: 5},
		Costs:          routing.DefaultCosts(),
		RequestOnStart: true,
	}
	for a := 0; a < numAS; a++ {
		for i := 0; i < perAS; i++ {
			nd := topo.Routers[a][i]
			agCfg := cfg
			agCfg.Seed = seed*31 + int64(nd.ID)
			ag := routing.NewAgent(nd, agCfg)
			// Synchronized start — the paper's post-restart condition the
			// jitter must break up.
			ag.Start(1)
			sc.Agents = append(sc.Agents, ag)
		}
	}

	// Faults over [30, horizon-40): the protocol converges first, and the
	// tail is quiet so censored outages stay rare. Flaps hit alternating
	// backbone ring links plus the skip links (partition-crossing for
	// k ≥ 2; the ring always leaves a detour, but every shortest path
	// between the measured domains crosses at least one flapped link).
	// Churn hits one interior router on each side of the measured path,
	// away from both ping endpoints.
	in := faults.NewInjector(seed*7 + 3)
	fcfg := faults.FlapConfig{MeanUp: meanUp, MeanDown: churnMeanDown, Start: 30, Horizon: horizon - 40}
	for a := 0; a+1 < numAS; a += 2 {
		in.FlapLink(churnLink(topo.Gateways[a], topo.Gateways[a+1]), fcfg)
	}
	for a := 0; a+4 < numAS; a += 4 {
		in.FlapLink(churnLink(topo.Gateways[a], topo.Gateways[a+4]), fcfg)
	}
	ccfg := faults.ChurnConfig{MeanUp: meanUp, MeanDown: 18, Start: 30, Horizon: horizon - 40, RebootOffset: 0.4}
	churned := []*routing.Agent{
		sc.Agents[1*perAS+perAS/2+1],
		sc.Agents[(numAS-1)*perAS+perAS/2+1],
	}
	for _, ag := range churned {
		in.ChurnAgent(ag, ccfg)
	}

	// Measured path: interior routers of domain 0 and the antipodal
	// domain, so pings cross the flapped backbone.
	src := topo.Routers[0][perAS/2]
	dst := topo.Routers[numAS/2][perAS/2]
	if withMonitor {
		mon := faults.NewMonitor([]netsim.NodeID{src.ID, dst.ID})
		for _, ag := range sc.Agents {
			mon.Observe(ag)
		}
		mon.ScheduleSampling(20, 7, horizon)
		mon.SampleAtFailures(in.FailureTimes())
		sc.Monitor = mon
	}

	interval := 0.503
	count := int((horizon - 35) / interval)
	if count < 10 {
		count = 10
	}
	sc.Pinger = workload.NewPinger(src, dst, workload.PingConfig{
		Interval: interval,
		Count:    count,
		Timeout:  2,
	})
	sc.Pinger.Start(25)
	return sc
}

// ExtChurn sweeps failure rate × policy and reports, per rate and
// policy: the p95 outage duration at the measured endpoints and the
// mean sampled route age. Notes carry the staleness-at-failure and
// availability aggregates. All output is independent of cfg.Jobs.
func ExtChurn(cfg ChurnConfig) *Result {
	if cfg.NumAS == 0 {
		cfg.NumAS = 6
	}
	if cfg.RoutersPerAS == 0 {
		cfg.RoutersPerAS = 8
	}
	if cfg.MeanUps == nil {
		cfg.MeanUps = []float64{120, 60, 30}
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = 400
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	type cell struct {
		pol    ChurnPolicy
		meanUp float64
	}
	var cells []cell
	for _, pol := range churnPolicies {
		for _, meanUp := range cfg.MeanUps {
			cells = append(cells, cell{pol, meanUp})
		}
	}
	type cellOut struct {
		outages, resurrections         int
		p95, age, stale50, avail, loss float64
		counts                         runner.Counts
	}
	outs := runCells(len(cells), cfg.Jobs, func(i, k int) cellOut {
		c := cells[i]
		sc := BuildChurn(cfg.NumAS, cfg.RoutersPerAS, k, cfg.Seed, c.meanUp, c.pol, cfg.Horizon)
		sc.Run()
		mon := sc.Monitor
		durs := mon.OutageDurations()
		p95 := math.NaN()
		if len(durs) > 0 {
			p95 = stats.Quantile(durs, 0.95)
		}
		return cellOut{
			outages:       len(durs),
			resurrections: mon.Resurrections(),
			p95:           p95,
			age:           stats.Mean(mon.Ages()),
			stale50:       stats.Quantile(mon.StalenessAtFailures(), 0.5),
			avail:         mon.Availability(),
			loss:          sc.Pinger.Result().LossRate(),
			counts:        netCounts(sc.Net),
		}
	})

	res := &Result{
		ID:    "ext_churn",
		Title: "route freshness under link flaps and router churn (failure rate × policy, K-invariant)",
		Plot: trace.PlotOptions{
			XLabel: "link failures per hour (per flapped link)", YLabel: "seconds",
		},
	}
	var series []stats.Series
	for _, pol := range churnPolicies {
		outage := stats.Series{Name: "p95 outage (s), " + pol.Label()}
		age := stats.Series{Name: "mean route age (s), " + pol.Label()}
		for _, meanUp := range cfg.MeanUps {
			o := outs[0]
			outs = outs[1:]
			rate := 3600 / (meanUp + churnMeanDown)
			outage.Append(rate, o.p95)
			age.Append(rate, o.age)
			res.Counts.Add(o.counts)
			res.Notef("%s, %.0f failures/h: %d outages (p95 %.1f s), mean age %.2f s, staleness at failure p50 %.2f s, availability %.4f, resurrections %d, ping loss %.2f%%",
				pol.Label(), rate, o.outages, o.p95, o.age, o.stale50, o.avail, o.resurrections, 100*o.loss)
		}
		series = append(series, outage, age)
	}
	res.Series = series
	return res
}
