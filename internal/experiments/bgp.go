package experiments

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"routesync/internal/des"
	"routesync/internal/jitter"
	"routesync/internal/netsim"
	"routesync/internal/pathvector"
	"routesync/internal/stats"
	"routesync/internal/trace"
)

// ext_bgp replays the paper's question one protocol layer up: in a
// path-vector internetwork the MRAI batching timer is itself a periodic
// timer, weakly coupled to its neighbors' timers through the updates it
// batches, so MRAI rounds can synchronize into network-wide update
// bursts exactly as RIP periods synchronize in §4. The experiment sweeps
// AS-level preferential-attachment topologies from 1k to 10k ASes under
// none/uniform jitter × MRAI {0, 5 s, 30 s} and measures (a) round
// synchronization as the largest-cluster fraction of per-AS flush phases
// (the paper's Figure-4 metric applied to MRAI rounds), (b) update-burst
// size distributions (p95-to-mean bin ratio), and (c) the length of the
// path-exploration storm a prefix withdrawal triggers. Runs execute on
// the conservative parallel engine; all reported metrics are invariant
// across the partition count K and both DES backends.

// BGPConfig parameterizes ExtBGP.
type BGPConfig struct {
	// Sizes lists the AS counts to sweep; nil means 1000 → 10000.
	Sizes []int
	// MRAIs lists the MRAI settings in seconds (0 disables batching);
	// nil means {0, 5, 30}.
	MRAIs []float64
	// Horizon is the simulated duration per run; zero means 160 s.
	Horizon float64
	// Jobs is the worker budget (0: one per CPU). Cells — one per
	// (jitter arm, MRAI, size) point — run concurrently first, and
	// workers left over when there are fewer cells than workers split
	// each cell into logical processes. Results do not depend on it;
	// memory does, since up to min(Jobs, cells) scenarios are alive at
	// once (two 10000-AS cells at Jobs 2).
	Jobs int
	// Seed drives topology and jitter randomness.
	Seed int64
	// Obs observes every partition's simulator.
	Obs des.Observer
}

// bgpJitters is the jitter axis: the deterministic baseline and the
// paper's ±Tp/2 uniform randomization, applied to both the refresh
// period and the MRAI interval.
var bgpJitters = []string{"none", "uniform"}

// bgpRefreshPeriod is the periodic re-advertisement interval Tp.
const bgpRefreshPeriod = 30.0

// bgpOrigins is the bounded prefix set size (see package pathvector:
// RIB state stays Θ(origins·degree) per AS instead of Θ(N)).
const bgpOrigins = 32

// BGPScenario is one built instance of the BGP scale scenario, exposed
// so the benchmark harness times exactly what the experiment runs.
type BGPScenario struct {
	Net    *netsim.Network
	Agents []*pathvector.Agent
	// flushLast[i] is agent i's last update flush inside measureWindow
	// (-1: none), written only from the logical process owning that AS.
	// flushBins counts flushes over the window's 1 s bins; logical
	// processes share it and add with sync/atomic, so counts are
	// race-free and independent of the order they land in.
	flushLast []float64
	flushBins []int64
	// StormLast[i] / StormCount[i] record agent i's last best-route
	// change for the probe origin after the withdrawal (-1: none) and
	// how many such changes it made — the path-exploration storm.
	StormLast  []float64
	StormCount []int
	// ASes gives the scale; MRAI the batching interval.
	ASes int
	MRAI float64
	// Horizon is the run length; WithdrawAt when the probe origin
	// withdraws its prefix. ProbeOrigin is the withdrawn AS (the seed
	// clique's first member — a transit hub, so the storm has fanout).
	Horizon, WithdrawAt float64
	ProbeOrigin         netsim.NodeID
}

// Run executes the scenario to its horizon.
func (s *BGPScenario) Run() { s.Net.RunUntil(s.Horizon) }

// BuildBGP wires one BGP scale run: a preferential-attachment AS graph
// (M=2) with Gao–Rexford relations from the generator's edge labels,
// one path-vector agent per AS, synchronized starts (the post-restart
// condition), a scheduled probe-prefix withdrawal, and per-AS flush and
// storm recorders. jit selects the jitter arm ("none" or "uniform").
func BuildBGP(ases, k int, mrai float64, jit string, seed int64, horizon float64, obs des.Observer) *BGPScenario {
	if k < 1 {
		k = 1
	}
	if k > ases {
		k = ases
	}
	nw := netsim.NewNetwork(seed)
	if obs != nil {
		nw.SetObserver(obs)
	}
	g := nw.BuildPreferentialAttachment(netsim.PreferentialAttachmentConfig{
		N: ases, M: 2,
		Link: netsim.LinkConfig{Delay: 0.01, Bandwidth: 10e6, QueueCap: 64},
		CPU:  &netsim.CPUConfig{InputQueueCap: 64},
		Seed: seed,
	})

	// Peer lists per AS, in edge-creation order (deterministic).
	peers := make([][]pathvector.PeerConfig, ases)
	for _, e := range g.Edges {
		a, b := int(e.A.ID), int(e.B.ID)
		relA, relB := pathvector.RelPeer, pathvector.RelPeer
		if e.Rel == netsim.EdgeProviderCustomer {
			relA, relB = pathvector.RelCustomer, pathvector.RelProvider
		}
		peers[a] = append(peers[a], pathvector.PeerConfig{Link: e.Link, Rel: relA})
		peers[b] = append(peers[b], pathvector.PeerConfig{Link: e.Link, Rel: relB})
	}

	// Bounded origin set spread across the id space: the clique hubs and
	// a sample of later (stub-ward) ASes.
	nOrig := bgpOrigins
	if nOrig > ases {
		nOrig = ases
	}
	origins := make([]netsim.NodeID, nOrig)
	for i := range origins {
		origins[i] = g.Nodes[i*ases/nOrig].ID
	}

	blockSize := (ases + k - 1) / k
	nw.Partition(k, netsim.OwnerByBlock(blockSize, k, k))

	sc := &BGPScenario{
		Net:         nw,
		ASes:        ases,
		MRAI:        mrai,
		Horizon:     horizon,
		WithdrawAt:  0.45 * horizon,
		ProbeOrigin: origins[0],
		StormLast:   make([]float64, ases),
		StormCount:  make([]int, ases),
	}
	for i := range sc.StormLast {
		sc.StormLast[i] = -1
	}
	lo, hi := sc.measureWindow()
	sc.flushLast = make([]float64, ases)
	for i := range sc.flushLast {
		sc.flushLast[i] = -1
	}
	sc.flushBins = make([]int64, int(hi-lo))

	var refreshJit, mraiJit jitter.Policy
	switch jit {
	case "none":
		refreshJit = jitter.None{Tp: bgpRefreshPeriod}
		if mrai > 0 {
			mraiJit = jitter.None{Tp: mrai}
		}
	case "uniform":
		refreshJit = jitter.Uniform{Tp: bgpRefreshPeriod, Tr: bgpRefreshPeriod / 2}
		if mrai > 0 {
			mraiJit = jitter.Uniform{Tp: mrai, Tr: mrai / 2}
		}
	default:
		panic("experiments: unknown BGP jitter arm " + jit)
	}

	originSet := pathvector.NewOriginSet(origins)
	sc.Agents = make([]*pathvector.Agent, ases)
	for i, nd := range g.Nodes {
		cfg := pathvector.Config{
			Origins:       originSet,
			Peers:         peers[i],
			RefreshPeriod: bgpRefreshPeriod,
			Jitter:        refreshJit,
			MRAI:          mrai,
			MRAIJitter:    mraiJit,
			PrepareCost:   0.002,
			ProcessCost:   0.0005,
			Seed:          seed*31 + int64(nd.ID),
		}
		ag := pathvector.NewAgent(nd, cfg)
		sc.Agents[i] = ag
		slot := i
		ag.OnFlush = func(t float64, _ netsim.NodeID, _, _ int) {
			if t < lo || t >= hi {
				return
			}
			sc.flushLast[slot] = t
			if b := int(t - lo); b < len(sc.flushBins) {
				atomic.AddInt64(&sc.flushBins[b], 1)
			}
		}
		agent := ag
		ag.OnBestChange = func(origin netsim.NodeID) {
			if origin != sc.ProbeOrigin {
				return
			}
			if now := agent.Node().Now(); now >= sc.WithdrawAt {
				sc.StormLast[slot] = now
				sc.StormCount[slot]++
			}
		}
		// Synchronized start: the paper's post-restart condition the
		// jitter must break up.
		ag.Start(1)
	}
	probe := sc.Agents[int(sc.ProbeOrigin)]
	probe.Node().Schedule(sc.WithdrawAt, "bgp-probe-withdraw", func() { probe.WithdrawLocal() })
	return sc
}

// measureWindow is the steady-state window metrics are taken over:
// after initial convergence, before the withdrawal.
func (s *BGPScenario) measureWindow() (lo, hi float64) {
	return 0.2 * s.Horizon, s.WithdrawAt
}

// SyncClusterFraction measures MRAI-round synchronization: the largest
// fraction of ASes whose last steady-state flush falls inside any
// (period/30)-wide window of phase mod period, where period is the MRAI
// (or the refresh period when batching is off). 1 means the rounds are
// in lockstep; ~1/30 means uniformly spread.
func (s *BGPScenario) SyncClusterFraction() float64 {
	period := s.MRAI
	if period <= 0 {
		period = bgpRefreshPeriod
	}
	var phases []float64
	for _, last := range s.flushLast {
		if last >= 0 {
			phases = append(phases, math.Mod(last, period))
		}
	}
	return largestPhaseCluster(phases, period, period/30)
}

// BurstRatio measures update burstiness: flush counts over 1 s bins of
// the steady-state window, reported as the peak bin over the mean bin.
// Near 1 means a steady trickle; when MRAI rounds synchronize, the
// whole window's updates land in a few bins and the ratio approaches
// the bin count. (The peak, not a percentile: under full
// synchronization almost every bin is empty, so any fixed percentile
// reads 0 exactly when the traffic is at its burstiest.)
func (s *BGPScenario) BurstRatio() float64 {
	var total, peak int64
	for _, b := range s.flushBins {
		total += b
		peak = max(peak, b)
	}
	if total == 0 {
		return 0
	}
	return float64(peak) / (float64(total) / float64(len(s.flushBins)))
}

// StormLength is the path-exploration storm duration: the time from the
// probe withdrawal to the last best-route change it causes anywhere.
func (s *BGPScenario) StormLength() float64 {
	last := -1.0
	for _, t := range s.StormLast {
		if t > last {
			last = t
		}
	}
	if last < 0 {
		return 0
	}
	return last - s.WithdrawAt
}

// StormChanges is the mean number of post-withdrawal best-route changes
// per AS — how much path exploration the withdrawal caused.
func (s *BGPScenario) StormChanges() float64 {
	total := 0
	for _, c := range s.StormCount {
		total += c
	}
	return float64(total) / float64(s.ASes)
}

// ReachFraction is the fraction of ASes that currently have a route to
// origin — the policy-reachability sanity metric (valley-free paths
// exist to everywhere in the generated graphs, so pre-withdrawal this
// should be 1).
func (s *BGPScenario) ReachFraction(origin netsim.NodeID) float64 {
	n := 0
	for _, ag := range s.Agents {
		if ok, _ := ag.Reachable(origin); ok {
			n++
		}
	}
	return float64(n) / float64(len(s.Agents))
}

// largestPhaseCluster returns the largest fraction of phases (each in
// [0, period)) falling inside any window-wide circular interval.
func largestPhaseCluster(phases []float64, period, window float64) float64 {
	if len(phases) == 0 {
		return 0
	}
	sort.Float64s(phases)
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

// ExtBGP sweeps the BGP scenario over cfg.Sizes × jitter arms × MRAI
// settings and reports, per size: MRAI-round synchronization, update
// burstiness, and path-exploration storm length. All series are
// independent of cfg.Jobs and of the DES backend.
func ExtBGP(cfg BGPConfig) *Result {
	if cfg.Sizes == nil {
		cfg.Sizes = []int{1000, 2500, 5000, 10000}
	}
	if cfg.MRAIs == nil {
		cfg.MRAIs = []float64{0, 5, 30}
	}
	if cfg.Horizon == 0 {
		cfg.Horizon = 160
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	type cell struct {
		jit  string
		mrai float64
		size int
	}
	var cells []cell
	for _, jit := range bgpJitters {
		for _, mrai := range cfg.MRAIs {
			for _, size := range cfg.Sizes {
				cells = append(cells, cell{jit, mrai, size})
			}
		}
	}
	type cellOut struct {
		ases                                int
		cluster, burst, storm, moves, reach float64
	}
	outs := runCells(len(cells), cfg.Jobs, func(i, k int) cellOut {
		c := cells[i]
		sc := BuildBGP(c.size, k, c.mrai, c.jit, cfg.Seed, cfg.Horizon, cfg.Obs)
		sc.Run()
		return cellOut{
			ases:    sc.ASes,
			cluster: sc.SyncClusterFraction(),
			burst:   sc.BurstRatio(),
			storm:   sc.StormLength(),
			moves:   sc.StormChanges(),
			reach:   sc.ReachFraction(sc.ProbeOrigin),
		}
	})

	res := &Result{
		ID:    "ext_bgp",
		Title: "MRAI round synchronization on internet-scale path-vector topologies (K-invariant results)",
		Plot: trace.PlotOptions{
			XLabel: "ASes", YLabel: "value",
		},
	}
	var series []stats.Series
	for _, jit := range bgpJitters {
		for _, mrai := range cfg.MRAIs {
			tag := fmt.Sprintf("jit=%s mrai=%gs", jit, mrai)
			sync := stats.Series{Name: "round sync cluster (" + tag + ")"}
			burst := stats.Series{Name: "peak/mean burst (" + tag + ")"}
			storm := stats.Series{Name: "storm length s (" + tag + ")"}
			for range cfg.Sizes {
				o := outs[0]
				outs = outs[1:]
				n := float64(o.ases)
				sync.Append(n, o.cluster)
				burst.Append(n, o.burst)
				storm.Append(n, o.storm)
				// A storm still in flight at the horizon is censored: some
				// ASes still hold a stale route to the withdrawn prefix, so
				// the reported length is a lower bound.
				censored := ""
				if o.reach > 0 {
					censored = ", censored at run end"
				}
				// No K, wall time, or backend here: artifacts must be
				// identical for every -jobs value and both DES backends.
				res.Notef("N=%d %s: round cluster %.0f%%, peak/mean burst %.1f, storm %.1fs (%.2f changes/AS%s), reach(probe) post-withdraw %.0f%%",
					o.ases, tag, 100*o.cluster, o.burst, o.storm, o.moves, censored, 100*o.reach)
			}
			series = append(series, sync, burst, storm)
		}
	}
	res.Series = series
	return res
}
