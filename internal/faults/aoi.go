package faults

import (
	"math"
	"sort"

	"routesync/internal/netsim"
	"routesync/internal/routing"
)

// Monitor measures routing-state freshness — age of information — at a
// set of observer agents for a fixed destination set. It rides the
// agents' OnRouteChange hooks for event-exact outage/recovery edges and
// reads Route.Updated at scheduled sampling instants for exact ages, so
// it adds no per-update bookkeeping to the protocol hot path.
//
// All mutable per-agent state is touched only by events executing at
// that agent's node, so a monitored run stays race-free and K-invariant
// under partitioning. Attach observers after Partition, before the run;
// read the aggregate accessors after (or between) runs.
type Monitor struct {
	dests   []netsim.NodeID
	destIdx map[netsim.NodeID]int
	agents  []*agentMon
}

// Outage is one loss→recovery cycle of a monitored destination at one
// observer. A destination still down at the end of a run has no Outage
// record (censored); Holes counts its dead samples instead.
type Outage struct {
	Router, Dest       netsim.NodeID
	LostAt, RegainedAt float64
}

// agentMon is one observer's state, confined to its node's logical
// process.
type agentMon struct {
	m  *Monitor
	ag *routing.Agent

	reachable []bool
	everUp    []bool
	lostAt    []float64
	lostNext  []netsim.NodeID // next hop in use when the route was lost

	outages   []Outage
	resurrect int

	ages    []float64 // sampled FIB-entry ages, live routes only
	holes   int       // samples that found no live route
	samples int       // total (dest) samples taken
	atFault []float64 // ages sampled at failure instants

	sampleFn func() // hoisted: one closure per observer, not per sample
	faultFn  func()
}

// NewMonitor creates a monitor for the given destination set.
func NewMonitor(dests []netsim.NodeID) *Monitor {
	m := &Monitor{
		dests:   append([]netsim.NodeID(nil), dests...),
		destIdx: make(map[netsim.NodeID]int, len(dests)),
	}
	for i, d := range m.dests {
		m.destIdx[d] = i
	}
	return m
}

// Observe attaches the monitor to ag, chaining any OnRouteChange hook
// already installed. Aggregate accessors iterate observers in attach
// order, so attach in a deterministic order.
func (m *Monitor) Observe(ag *routing.Agent) {
	am := &agentMon{
		m:         m,
		ag:        ag,
		reachable: make([]bool, len(m.dests)),
		everUp:    make([]bool, len(m.dests)),
		lostAt:    make([]float64, len(m.dests)),
		lostNext:  make([]netsim.NodeID, len(m.dests)),
	}
	for i := range am.lostAt {
		am.lostAt[i] = math.NaN()
	}
	am.sampleFn = am.sample
	am.faultFn = am.sampleAtFault
	prev := ag.OnRouteChange
	ag.OnRouteChange = func(dest netsim.NodeID, metric uint32, reachable bool) {
		if prev != nil {
			prev(dest, metric, reachable)
		}
		am.routeChange(dest, reachable)
	}
	m.agents = append(m.agents, am)
}

// routeChange tracks loss/recovery edges for monitored destinations.
func (am *agentMon) routeChange(dest netsim.NodeID, up bool) {
	i, ok := am.m.destIdx[dest]
	if !ok {
		return
	}
	now := am.ag.Node().Now()
	switch {
	case up && !am.reachable[i]:
		am.reachable[i] = true
		if !am.everUp[i] {
			// First convergence is not an outage recovery.
			am.everUp[i] = true
			return
		}
		// A recovery via a different next hop while the destination is
		// still inside its hold window violates hold-down; a correct
		// hold-down implementation never produces one.
		if r := am.ag.Table().Get(dest); r != nil &&
			am.ag.Table().HeldDown(dest, now) && r.NextHop != am.lostNext[i] {
			am.resurrect++
		}
		am.outages = append(am.outages, Outage{Router: am.ag.Node().ID, Dest: dest, LostAt: am.lostAt[i], RegainedAt: now})
	case !up && am.reachable[i]:
		am.reachable[i] = false
		am.lostAt[i] = now
		if r := am.ag.Table().Get(dest); r != nil {
			am.lostNext[i] = r.NextHop
		}
	}
}

// sample reads the observer's table once: the age (now − Updated) of
// every live monitored route, and a hole for every dead one.
func (am *agentMon) sample() {
	now := am.ag.Node().Now()
	tbl := am.ag.Table()
	inf := tbl.Infinity()
	for _, dest := range am.m.dests {
		if dest == am.ag.Node().ID {
			continue
		}
		am.samples++
		r := tbl.Get(dest)
		if r == nil || r.Metric >= inf {
			am.holes++
			continue
		}
		am.ages = append(am.ages, now-r.Updated)
	}
}

// sampleAtFault records the ages of live monitored routes at a failure
// instant — the staleness the failure exposes.
func (am *agentMon) sampleAtFault() {
	now := am.ag.Node().Now()
	tbl := am.ag.Table()
	inf := tbl.Infinity()
	for _, dest := range am.m.dests {
		if dest == am.ag.Node().ID {
			continue
		}
		r := tbl.Get(dest)
		if r == nil || r.Metric >= inf {
			continue
		}
		am.atFault = append(am.atFault, now-r.Updated)
	}
}

// ScheduleSampling schedules periodic age samples at every attached
// observer at times start, start+every, ... below horizon. Call after
// every observer is attached.
func (m *Monitor) ScheduleSampling(start, every, horizon float64) {
	if every <= 0 {
		panic("faults: sampling interval must be positive")
	}
	for _, am := range m.agents {
		nd := am.ag.Node()
		for t := start; t < horizon; t += every {
			nd.Schedule(t, "aoi-sample", am.sampleFn)
		}
	}
}

// SampleAtFailures schedules a staleness sample at every attached
// observer at each of the given instants (usually
// Injector.FailureTimes()). The sample fires at the failure time with a
// later per-node key, so it reads the table as the failure found it —
// before any reaction can propagate.
func (m *Monitor) SampleAtFailures(times []float64) {
	for _, am := range m.agents {
		nd := am.ag.Node()
		for _, t := range times {
			nd.Schedule(t, "aoi-fault-sample", am.faultFn)
		}
	}
}

// Outages returns every completed outage across observers, sorted by
// (LostAt, Router, Dest).
func (m *Monitor) Outages() []Outage {
	var out []Outage
	for _, am := range m.agents {
		out = append(out, am.outages...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.LostAt != b.LostAt {
			return a.LostAt < b.LostAt
		}
		if a.Router != b.Router {
			return a.Router < b.Router
		}
		return a.Dest < b.Dest
	})
	return out
}

// OutageDurations returns the durations of every completed outage — the
// convergence tail the churn experiments plot as a CDF.
func (m *Monitor) OutageDurations() []float64 {
	var out []float64
	for _, o := range m.Outages() {
		out = append(out, o.RegainedAt-o.LostAt)
	}
	return out
}

// Resurrections counts hold-down violations (recoveries via a new next
// hop inside the hold window) across observers.
func (m *Monitor) Resurrections() int {
	n := 0
	for _, am := range m.agents {
		n += am.resurrect
	}
	return n
}

// Ages returns every periodic age sample of a live route, concatenated
// in observer attach order.
func (m *Monitor) Ages() []float64 {
	var out []float64
	for _, am := range m.agents {
		out = append(out, am.ages...)
	}
	return out
}

// StalenessAtFailures returns the route ages sampled at failure
// instants, concatenated in observer attach order.
func (m *Monitor) StalenessAtFailures() []float64 {
	var out []float64
	for _, am := range m.agents {
		out = append(out, am.atFault...)
	}
	return out
}

// Availability returns the fraction of periodic samples that found a
// live route (NaN before any sample fires).
func (m *Monitor) Availability() float64 {
	samples, holes := 0, 0
	for _, am := range m.agents {
		samples += am.samples
		holes += am.holes
	}
	if samples == 0 {
		return math.NaN()
	}
	return 1 - float64(holes)/float64(samples)
}
