package experiments

import (
	"math"
	"reflect"
	"testing"

	"routesync/internal/netsim"
)

// recordFlushes wraps every agent's OnFlush, keeping the metric
// recorders BuildBGP installed, and returns the per-AS flush timelines
// it fills as the scenario runs. Each timeline is appended only from
// the logical process owning its AS.
func recordFlushes(sc *BGPScenario) [][]float64 {
	flushes := make([][]float64, len(sc.Agents))
	for i, ag := range sc.Agents {
		i, inner := i, ag.OnFlush
		ag.OnFlush = func(t float64, peer netsim.NodeID, adv, wdr int) {
			flushes[i] = append(flushes[i], t)
			inner(t, peer, adv, wdr)
		}
	}
	return flushes
}

// timelineMetrics recomputes SyncClusterFraction and BurstRatio from
// whole flush timelines: the reference for the online recorders.
func timelineMetrics(sc *BGPScenario, flushes [][]float64) (sync, burst float64) {
	lo, hi := sc.measureWindow()
	period := sc.MRAI
	if period <= 0 {
		period = bgpRefreshPeriod
	}
	n := int(hi - lo)
	bins := make([]float64, n)
	total := 0.0
	var phases []float64
	for _, ts := range flushes {
		last := -1.0
		for _, t := range ts {
			if t >= lo && t < hi {
				last = t
				if b := int(t - lo); b < n {
					bins[b]++
					total++
				}
			}
		}
		if last >= 0 {
			phases = append(phases, math.Mod(last, period))
		}
	}
	peak := 0.0
	for _, b := range bins {
		peak = max(peak, b)
	}
	return largestPhaseCluster(phases, period, period/30), peak / (total / float64(n))
}

// TestBGPKInvariant: the path-vector scale scenario's observable outcome
// — every AS's flush timeline, the storm recorders, and the derived
// synchronization/burst/storm metrics — is identical for any partition
// count, and the online sync/burst recorders match a recomputation from
// the whole timelines. This is the property that lets ext_bgp emit
// Jobs-independent artifacts. CI runs it under -race on both DES
// backends (the backend is selected by ROUTESYNC_DES_BACKEND).
//
// At MRAI 5 s the last 1 s bin of the measurement window holds no flush;
// at MRAI 30 s every bin holds one, so a recorder that drops or misfiles
// any bin fails the recomputation check there.
func TestBGPKInvariant(t *testing.T) {
	type snap struct {
		flushes [][]float64
		last    []float64
		count   []int
		sync    float64
		burst   float64
		storm   float64
		reach   float64
	}
	for _, c := range []struct {
		mrai     float64
		everyBin bool
	}{{5, false}, {30, true}} {
		run := func(k int) snap {
			sc := BuildBGP(220, k, c.mrai, "uniform", 9, 120, nil)
			flushes := recordFlushes(sc)
			sc.Run()
			second := sc.Agents[len(sc.Agents)/bgpOrigins].Node().ID // the origin set's second member
			s := snap{
				flushes: flushes,
				last:    sc.StormLast,
				count:   sc.StormCount,
				sync:    sc.SyncClusterFraction(),
				burst:   sc.BurstRatio(),
				storm:   sc.StormLength(),
				reach:   sc.ReachFraction(second),
			}
			if sync, burst := timelineMetrics(sc, flushes); sync != s.sync || burst != s.burst {
				t.Errorf("mrai=%g k=%d: online sync %v burst %v, timelines give %v and %v", c.mrai, k, s.sync, s.burst, sync, burst)
			}
			for b, n := range sc.flushBins {
				if c.everyBin && n == 0 {
					t.Errorf("mrai=%g k=%d: no flush in bin %d of %d", c.mrai, k, b, len(sc.flushBins))
				}
			}
			return s
		}
		ref := run(1)
		total := 0
		for _, ts := range ref.flushes {
			total += len(ts)
		}
		if total == 0 {
			t.Fatalf("mrai=%g: no flushes recorded; scenario is wired wrong", c.mrai)
		}
		if ref.storm <= 0 {
			t.Fatalf("mrai=%g: withdrawal caused no path exploration; probe is inert", c.mrai)
		}
		if ref.reach < 0.95 {
			t.Fatalf("mrai=%g: only %.0f%% of ASes reach the second origin; policy routing broken", c.mrai, 100*ref.reach)
		}
		for _, k := range []int{2, 4} {
			got := run(k)
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("mrai=%g k=%d: scenario outcome diverges from k=1", c.mrai, k)
			}
		}
	}
}

// TestBGPMRAIDampsBursts: with synchronized starts and no jitter, a
// 30 s MRAI batches the per-peer update stream, so total flush count
// drops sharply versus MRAI off at the same size.
func TestBGPMRAIDampsBursts(t *testing.T) {
	flushes := func(mrai float64) int {
		sc := BuildBGP(150, 2, mrai, "none", 4, 90, nil)
		flushes := recordFlushes(sc)
		sc.Run()
		n := 0
		for _, ts := range flushes {
			n += len(ts)
		}
		return n
	}
	off, on := flushes(0), flushes(30)
	if on >= off {
		t.Fatalf("MRAI=30 produced %d flushes, MRAI=0 produced %d; batching is inert", on, off)
	}
}

// TestExtBGPSmoke runs the registered experiment at a toy size and
// checks the artifact contract: three series per jitter × MRAI arm,
// one note per arm × size, no dependence on Jobs.
func TestExtBGPSmoke(t *testing.T) {
	cfg := BGPConfig{
		Sizes:   []int{120, 200},
		MRAIs:   []float64{0, 5},
		Horizon: 90,
		Jobs:    2,
		Seed:    2,
	}
	res := ExtBGP(cfg)
	arms := len(bgpJitters) * len(cfg.MRAIs)
	if len(res.Series) != 3*arms {
		t.Fatalf("series = %d, want %d", len(res.Series), 3*arms)
	}
	for _, s := range res.Series {
		if s.Len() != len(cfg.Sizes) {
			t.Fatalf("series %q has %d points, want %d", s.Name, s.Len(), len(cfg.Sizes))
		}
	}
	if want := arms * len(cfg.Sizes); len(res.Notes) != want {
		t.Fatalf("notes = %d, want %d", len(res.Notes), want)
	}
	// The artifact must be identical whatever parallelism the host offers.
	cfg.Jobs = 1
	again := ExtBGP(cfg)
	if !reflect.DeepEqual(again, res) {
		t.Error("ext_bgp output depends on Jobs")
	}
}
