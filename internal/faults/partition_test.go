package faults

import (
	"fmt"
	"reflect"
	"testing"

	"routesync/internal/des"
	"routesync/internal/jitter"
	"routesync/internal/netsim"
	"routesync/internal/routing"
)

// churnSnap captures everything a churned full-protocol run computes:
// converged tables, agent counters, network counters, and every
// age-of-information aggregate the monitor exposes.
type churnSnap struct {
	tables    [][]routeVal
	stats     []routing.Stats
	counters  netsim.Counters
	outages   []Outage
	ages      []float64
	staleness []float64
	resurrect int
	avail     float64
}

type routeVal struct {
	Dest    netsim.NodeID
	Metric  uint32
	NextHop netsim.NodeID
	Updated float64
}

// runChurnedAS runs a 4×4 two-level AS under link flaps on two backbone
// links (partition-crossing for k ≥ 2) and crash/reboot churn on two
// interior routers, partitioned into k logical processes (k == 0:
// unpartitioned), with the AoI monitor attached everywhere.
func runChurnedAS(backend des.Backend, k int) churnSnap {
	const numAS, perAS = 4, 4
	n := netsim.NewNetwork(23)
	n.Sim = des.NewBackend(backend)
	topo := n.BuildTwoLevelAS(netsim.TwoLevelASConfig{
		NumAS:        numAS,
		RoutersPerAS: perAS,
		IntraLink:    netsim.LinkConfig{Delay: 0.002, Bandwidth: 1.5e6, QueueCap: 16},
		InterLink:    netsim.LinkConfig{Delay: 0.012, Bandwidth: 1.5e6, QueueCap: 16},
		CPU:          &netsim.CPUConfig{InputQueueCap: 4},
		Chords:       1,
	})
	if k > 0 {
		n.Partition(k, netsim.OwnerByBlock(perAS, numAS, k))
	}

	cfg := routing.Config{
		Profile:        compressedProfile(10),
		Jitter:         jitter.HalfSpread{Tp: 5},
		Costs:          routing.DefaultCosts(),
		RequestOnStart: true,
		Seed:           13,
	}
	var agents []*routing.Agent
	idx := 0
	for a := 0; a < numAS; a++ {
		for i := 0; i < perAS; i++ {
			ag := routing.NewAgent(topo.Routers[a][i], cfg)
			ag.Start(0.2 + 0.31*float64(idx))
			agents = append(agents, ag)
			idx++
		}
	}

	// Fault processes: flaps on two backbone links, churn on two interior
	// routers — all scheduled through the keyed event layer.
	in := NewInjector(5)
	in.FlapLink(linkBetween(topo.Gateways[0], topo.Gateways[1]),
		FlapConfig{MeanUp: 50, MeanDown: 15, Start: 25, Horizon: 170})
	in.FlapLink(linkBetween(topo.Gateways[2], topo.Gateways[3]),
		FlapConfig{MeanUp: 40, MeanDown: 12, Start: 25, Horizon: 170})
	in.ChurnAgent(agents[0*perAS+2], ChurnConfig{MeanUp: 70, MeanDown: 20, Start: 25, Horizon: 170, RebootOffset: 0.4})
	in.ChurnAgent(agents[3*perAS+1], ChurnConfig{MeanUp: 60, MeanDown: 25, Start: 25, Horizon: 170, RebootOffset: 0.4})

	mon := NewMonitor([]netsim.NodeID{topo.Routers[0][1].ID, topo.Routers[3][2].ID})
	for _, ag := range agents {
		mon.Observe(ag)
	}
	mon.ScheduleSampling(10, 7, 200)
	mon.SampleAtFailures(in.FailureTimes())

	// Uneven slices so fault events straddle RunUntil barriers.
	for _, h := range []float64{24.9, 60, 61, 200} {
		n.RunUntil(h)
	}

	snap := churnSnap{
		counters:  n.Counters(),
		outages:   mon.Outages(),
		ages:      mon.Ages(),
		staleness: mon.StalenessAtFailures(),
		resurrect: mon.Resurrections(),
		avail:     mon.Availability(),
	}
	for _, ag := range agents {
		snap.stats = append(snap.stats, ag.Stats())
		var tbl []routeVal
		for _, r := range ag.Table().Routes() {
			tbl = append(tbl, routeVal{Dest: r.Dest, Metric: r.Metric, NextHop: r.NextHop, Updated: r.Updated})
		}
		snap.tables = append(snap.tables, tbl)
	}
	return snap
}

// TestChurnPartitionDeterminism is the tentpole acceptance property: a
// run under link flaps and node churn — fault events firing inside
// parallel windows, crossing partition boundaries — is bit-identical
// for every partition count on both DES backends, including every
// age-of-information aggregate. Run under -race this also proves the
// fault layer adds no shared mutable state.
func TestChurnPartitionDeterminism(t *testing.T) {
	ref := runChurnedAS(des.BackendHeap, 0)
	if ref.counters.Drops[netsim.DropLinkDown] == 0 {
		t.Fatalf("no link-down drops; flaps are inert: %+v", ref.counters)
	}
	if ref.counters.Drops[netsim.DropNodeDown] == 0 {
		t.Fatalf("no node-down drops; churn is inert: %+v", ref.counters)
	}
	if len(ref.outages) == 0 || len(ref.ages) == 0 || len(ref.staleness) == 0 {
		t.Fatalf("degenerate monitor output: %d outages, %d ages, %d staleness",
			len(ref.outages), len(ref.ages), len(ref.staleness))
	}
	if ref.resurrect != 0 {
		t.Fatalf("hold-down violated: %d resurrections", ref.resurrect)
	}
	for _, backend := range []des.Backend{des.BackendHeap, des.BackendCalendar} {
		for _, k := range []int{1, 2, 4} {
			name := fmt.Sprintf("%v/k=%d", backend, k)
			got := runChurnedAS(backend, k)
			if !reflect.DeepEqual(got.counters, ref.counters) {
				t.Errorf("%s: network counters diverge:\n got %+v\nwant %+v", name, got.counters, ref.counters)
			}
			if !reflect.DeepEqual(got.stats, ref.stats) {
				t.Errorf("%s: agent stats diverge", name)
			}
			if !reflect.DeepEqual(got.tables, ref.tables) {
				t.Errorf("%s: routing tables diverge", name)
			}
			if !reflect.DeepEqual(got.outages, ref.outages) {
				t.Errorf("%s: outage records diverge:\n got %+v\nwant %+v", name, got.outages, ref.outages)
			}
			if !reflect.DeepEqual(got.ages, ref.ages) ||
				!reflect.DeepEqual(got.staleness, ref.staleness) ||
				got.avail != ref.avail || got.resurrect != ref.resurrect {
				t.Errorf("%s: AoI aggregates diverge", name)
			}
		}
	}
}
