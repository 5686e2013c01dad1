package experiments

import (
	"reflect"
	"testing"

	"routesync/internal/netsim"
)

// TestChurnKInvariant: the churn scenario's observable outcome — ping
// RTTs, network counters, outage records, and every AoI aggregate — is
// identical for any partition count, with the fault events themselves
// firing inside parallel windows. This is the property that lets
// ext_churn emit Jobs-independent artifacts.
func TestChurnKInvariant(t *testing.T) {
	type snap struct {
		rtts      []float64
		counts    netsim.Counters
		outages   []float64
		ages      []float64
		staleness []float64
		resurrect int
		avail     float64
	}
	run := func(k int) snap {
		sc := BuildChurn(4, 4, k, 3, 35, ChurnPolicy{Triggered: true, HoldDown: 10}, 150)
		sc.Run()
		// Lost pings record NaN, which DeepEqual never equates; encode them
		// as -1 so identical timelines compare equal.
		rtts := append([]float64(nil), sc.Pinger.Result().RTTs...)
		for i, v := range rtts {
			if v != v {
				rtts[i] = -1
			}
		}
		return snap{
			rtts:      rtts,
			counts:    sc.Net.Counters(),
			outages:   sc.Monitor.OutageDurations(),
			ages:      sc.Monitor.Ages(),
			staleness: sc.Monitor.StalenessAtFailures(),
			resurrect: sc.Monitor.Resurrections(),
			avail:     sc.Monitor.Availability(),
		}
	}
	ref := run(1)
	delivered := 0
	for _, v := range ref.rtts {
		if v >= 0 { // not a loss sentinel
			delivered++
		}
	}
	if delivered == 0 {
		t.Fatal("every ping lost; scenario is wired wrong")
	}
	if ref.counts.Drops[netsim.DropLinkDown] == 0 {
		t.Fatalf("no link-down drops; flaps are inert: %+v", ref.counts)
	}
	if ref.counts.Drops[netsim.DropNodeDown] == 0 {
		t.Fatalf("no node-down drops; churn is inert: %+v", ref.counts)
	}
	if len(ref.ages) == 0 || len(ref.staleness) == 0 {
		t.Fatalf("degenerate monitor output: %d ages, %d staleness", len(ref.ages), len(ref.staleness))
	}
	if ref.resurrect != 0 {
		t.Fatalf("hold-down violated: %d resurrections", ref.resurrect)
	}
	for _, k := range []int{2, 4} {
		got := run(k)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("k=%d: scenario outcome diverges from k=1", k)
		}
	}
}

// TestExtChurnSmoke runs the registered experiment at a toy size and
// checks the artifact contract: two series per policy (p95 outage, mean
// age), one note per policy × rate, no dependence on Jobs.
func TestExtChurnSmoke(t *testing.T) {
	cfg := ChurnConfig{
		NumAS:        4,
		RoutersPerAS: 4,
		MeanUps:      []float64{45, 30},
		Horizon:      150,
		Jobs:         2,
		Seed:         3,
	}
	res := ExtChurn(cfg)
	if len(res.Series) != 2*len(churnPolicies) {
		t.Fatalf("series = %d, want %d", len(res.Series), 2*len(churnPolicies))
	}
	for _, s := range res.Series {
		if s.Len() != len(cfg.MeanUps) {
			t.Fatalf("series %q has %d points, want %d", s.Name, s.Len(), len(cfg.MeanUps))
		}
	}
	if want := len(churnPolicies) * len(cfg.MeanUps); len(res.Notes) != want {
		t.Fatalf("notes = %d, want %d", len(res.Notes), want)
	}
	// The artifact must be identical whatever parallelism the host offers.
	cfg.Jobs = 1
	again := ExtChurn(cfg)
	if !reflect.DeepEqual(again, res) {
		t.Error("ext_churn output depends on Jobs")
	}
}
