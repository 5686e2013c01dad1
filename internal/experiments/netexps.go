package experiments

import (
	"math"

	"routesync/internal/jitter"
	"routesync/internal/netsim"
	"routesync/internal/rng"
	"routesync/internal/routing"
	"routesync/internal/stats"
	"routesync/internal/trace"
	"routesync/internal/workload"
)

// PathConfig parameterizes the packet-level measurement scenarios
// (Figs 1–3): a host-to-host path whose transit routers sit on a backbone
// LAN full of routers running a periodic distance-vector protocol with
// synchronized updates.
type PathConfig struct {
	// Routers on the backbone LAN (two of them carry the measured path).
	Routers int
	// Profile is the routing protocol (Fig 1: IGRP at 90 s; Fig 3: RIP
	// at 30 s).
	Profile routing.Profile
	// Jitter is the per-router timer policy; nil means no randomness
	// (the pre-fix deployments the paper measured).
	Jitter jitter.Policy
	// ExtraRoutes models table size (paper: ~300 routes at 1 ms each).
	ExtraRoutes int
	// PerRouteCost is seconds of CPU per route (paper: 0.001).
	PerRouteCost float64
	// InputQueueCap is the stalled router's buffer (packets).
	InputQueueCap int
	// ForwardCost is seconds of CPU per forwarded packet on the path
	// routers (see netsim.CPUConfig.ForwardCost); zero means free.
	ForwardCost float64
	// BackgroundLoss is a random per-arrival loss probability at the
	// receiving host (Fig 3's isolated single-packet losses).
	BackgroundLoss float64
	// Synchronized starts every router's timer together (the measured
	// networks were synchronized); false draws offsets over one period.
	Synchronized bool
	Seed         int64
}

// pathLinkDelay is the propagation delay, in seconds, of each host link
// on the measured path.
const pathLinkDelay = 0.015

// Defaults fills zero fields with the Figure 1 scenario.
func (c PathConfig) Defaults() PathConfig {
	if c.Routers == 0 {
		c.Routers = 10
	}
	if c.Profile.Name == "" {
		c.Profile = routing.IGRP()
	}
	if c.ExtraRoutes == 0 {
		c.ExtraRoutes = 300
	}
	if c.PerRouteCost == 0 {
		c.PerRouteCost = 0.001
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// builtPath is the assembled scenario.
type builtPath struct {
	net      *netsim.Network
	src, dst *netsim.Node
}

// buildPath wires: src —link— R1 —LAN(R1..Rk)— R2 —link— dst, with every
// router running the routing protocol and legacy CPUs on the path
// routers. Static routes cover the host addresses (hosts do not speak the
// routing protocol).
func buildPath(c PathConfig) *builtPath {
	net := netsim.NewNetwork(c.Seed)
	cpuCfg := &netsim.CPUConfig{
		InputQueueCap: c.InputQueueCap,
		ForwardCost:   c.ForwardCost,
	}
	routers := make([]*netsim.Node, c.Routers)
	for i := range routers {
		routers[i] = net.NewNode("core", cpuCfg)
	}
	src := net.NewNode("src", nil)
	dst := net.NewNode("dst", nil)
	net.NewLAN(routers, netsim.LANConfig{Delay: 0.001})
	net.Connect(src, routers[0], netsim.LinkConfig{Delay: pathLinkDelay})
	net.Connect(routers[1], dst, netsim.LinkConfig{Delay: pathLinkDelay})
	all := make([]netsim.NodeID, net.NumNodes())
	for i := range all {
		all[i] = netsim.NodeID(i)
	}
	net.InstallRoutesToward(all)
	dst.LossProb = c.BackgroundLoss

	agents := make([]*routing.Agent, c.Routers)
	for i, nd := range routers {
		agents[i] = routing.NewAgent(nd, routing.Config{
			Profile: c.Profile,
			Jitter:  c.Jitter,
			Costs: routing.Costs{
				PerRoutePrepare: c.PerRouteCost,
				PerRouteProcess: c.PerRouteCost,
				MinPrepare:      c.PerRouteCost,
				MinProcess:      c.PerRouteCost,
			},
			TriggeredResetsTimer: true,
			ExtraRoutes:          c.ExtraRoutes,
			Seed:                 c.Seed,
		})
	}
	r := rngOffsets(c)
	for i, a := range agents {
		a.Start(r[i])
	}
	return &builtPath{net: net, src: src, dst: dst}
}

// rngOffsets produces start offsets: all equal when synchronized,
// otherwise spread over one period deterministically from the seed.
func rngOffsets(c PathConfig) []float64 {
	out := make([]float64, c.Routers)
	if c.Synchronized {
		for i := range out {
			out[i] = 1.0
		}
		return out
	}
	// Random phases over one period — the model's unsynchronized
	// initial condition (equally-spaced offsets would be maximally
	// anti-clustered and unrepresentative).
	r := rng.New(c.Seed + 17)
	for i := range out {
		out[i] = r.Uniform(0, c.Profile.Period)
	}
	return out
}

// Fig1 regenerates Figure 1: 1000 pings at 1.01-second intervals across a
// path whose core routers process synchronized IGRP updates with their
// forwarding stalled — periodic clumps of dropped pings roughly every
// 90 s (≈ every 89 pings). Dropped pings plot at −0.1 as in the paper's
// negative-RTT convention.
func Fig1(c PathConfig, pings int) (*Result, workload.PingResult) {
	c = c.Defaults()
	c.Synchronized = true
	if pings == 0 {
		pings = 1000
	}
	b := buildPath(c)
	p := workload.NewPinger(b.src, b.dst, workload.PingConfig{Interval: 1.01, Count: pings})
	warmup := 2 * c.Profile.Period // let the protocol converge first
	p.Start(warmup)
	b.net.RunUntil(warmup + float64(pings)*1.01 + 10)
	res := p.Result()

	ser := stats.Series{Name: "rtt"}
	for i, rtt := range res.RTTs {
		if math.IsNaN(rtt) {
			ser.Append(float64(i), -0.1)
		} else {
			ser.Append(float64(i), rtt)
		}
	}
	r := &Result{
		ID:     "fig01",
		Title:  "ping RTTs across a path with synchronized routing updates (drops at −0.1)",
		Series: []stats.Series{ser},
		Plot:   trace.PlotOptions{XLabel: "ping number", YLabel: "roundtrip time (s)"},
	}
	r.Notef("loss rate %.1f%% (%d of %d); paper: ≥3%%", 100*res.LossRate(), res.Lost(), res.Sent)
	r.Notef("update period %.0f s ≈ every %.0f pings", c.Profile.Period, c.Profile.Period/1.01)
	return r, res
}

// Fig2 regenerates Figure 2: the autocorrelation of the Figure 1
// roundtrip times with dropped packets assigned a 2-second RTT; the peak
// near lag 89 reflects the 90-second update period.
func Fig2(ping workload.PingResult, maxLag int) *Result {
	if maxLag == 0 {
		maxLag = 200
	}
	filled := ping.RTTsFilled(2.0)
	acf := stats.Autocorrelation(filled, maxLag)
	ser := stats.Series{Name: "autocorrelation"}
	for k, v := range acf {
		ser.Append(float64(k), v)
	}
	r := &Result{
		ID:     "fig02",
		Title:  "autocorrelation of roundtrip times (drops filled with 2 s)",
		Series: []stats.Series{ser},
		Plot:   trace.PlotOptions{XLabel: "lag (pings)", YLabel: "autocorrelation"},
	}
	peak := stats.PeakLag(acf, 45, maxLag)
	if peak > 0 {
		r.Notef("autocorrelation peak at lag %d (paper: 89 ≈ 90 s / 1.01 s)", peak)
	}
	return r
}

// Fig3 regenerates Figure 3: audio outage durations over time for a CBR
// stream crossing routers with synchronized RIP updates — strong periodic
// loss spikes every 30 seconds over a floor of isolated random losses.
func Fig3(c PathConfig, duration float64) (*Result, workload.AudioResult) {
	c = c.Defaults()
	if c.Profile.Name != "rip" {
		c.Profile = routing.RIP()
	}
	if c.BackgroundLoss == 0 {
		c.BackgroundLoss = 0.002
	}
	c.Synchronized = true
	if duration == 0 {
		duration = 600 // the paper's 10-minute window
	}
	b := buildPath(c)
	s := workload.NewAudioStream(b.src, b.dst, workload.AudioConfig{Rate: 50, Duration: duration})
	warmup := 2 * c.Profile.Period
	s.Start(warmup)
	b.net.RunUntil(warmup + duration + 10)
	res := s.Result()

	ser := stats.Series{Name: "outage duration"}
	for _, o := range res.Outages() {
		ser.Append(o.Start-warmup, o.Duration)
	}
	r := &Result{
		ID:     "fig03",
		Title:  "audio outage durations with synchronized RIP updates",
		Series: []stats.Series{ser},
		Plot:   trace.PlotOptions{XLabel: "time (s)", YLabel: "outage duration (s)"},
		Counts: netCounts(b.net),
	}
	r.Notef("overall loss %.1f%%; outages: %d", 100*res.LossRate(), len(res.Outages()))
	// Measure loss inside vs outside the periodic busy windows.
	var spikes int
	for _, o := range res.Outages() {
		if o.Duration > 0.5 {
			spikes++
		}
	}
	r.Notef("loss spikes (>0.5 s): %d in %.0f s — about one per %.0f s period",
		spikes, duration, c.Profile.Period)
	return r, res
}
