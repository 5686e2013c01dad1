package scenarios

import (
	"math"
	"testing"
)

func TestTCPDropTailSynchronizes(t *testing.T) {
	res := RunTCPSync(TCPSyncConfig{Flows: 10, Capacity: 100, Rounds: 2000, Seed: 1})
	if res.SawtoothCorrelation < 0.8 {
		t.Fatalf("drop-tail correlation = %v, want ~1 (global synchronization)", res.SawtoothCorrelation)
	}
	if math.Abs(res.CutsPerCongestion-10) > 1e-9 {
		t.Fatalf("drop-tail cuts per congestion = %v, want all 10 flows", res.CutsPerCongestion)
	}
}

func TestTCPRandomDropDesynchronizes(t *testing.T) {
	res := RunTCPSync(TCPSyncConfig{Flows: 10, Capacity: 100, Rounds: 2000, RandomDrop: true, Seed: 1})
	if res.SawtoothCorrelation > 0.4 {
		t.Fatalf("random-drop correlation = %v, want low (decorrelated sawtooths)", res.SawtoothCorrelation)
	}
	if res.CutsPerCongestion > 6 {
		t.Fatalf("random-drop cuts per congestion = %v, want few", res.CutsPerCongestion)
	}
}

// TestTCPRandomDropImprovesUtilization: the headline operational benefit
// of desynchronizing the cycles — when all flows back off together the
// link drains empty; independent backoffs keep it fuller.
func TestTCPRandomDropImprovesUtilization(t *testing.T) {
	tail := RunTCPSync(TCPSyncConfig{Flows: 10, Capacity: 100, Rounds: 4000, Seed: 2})
	random := RunTCPSync(TCPSyncConfig{Flows: 10, Capacity: 100, Rounds: 4000, RandomDrop: true, Seed: 2})
	if random.Utilization <= tail.Utilization {
		t.Fatalf("random-drop utilization %v not above drop-tail %v",
			random.Utilization, tail.Utilization)
	}
}

func TestTCPWindowsAlwaysPositive(t *testing.T) {
	for _, rd := range []bool{false, true} {
		_, windows := runTCPSync(TCPSyncConfig{Flows: 5, Capacity: 50, Rounds: 1000, RandomDrop: rd, Seed: 3})
		for r, snap := range windows {
			for i, w := range snap {
				if w < 1 {
					t.Fatalf("flow %d window %d at round %d", i, w, r)
				}
			}
		}
	}
}

func TestTCPSyncDeterministic(t *testing.T) {
	a := RunTCPSync(TCPSyncConfig{Seed: 7, RandomDrop: true})
	b := RunTCPSync(TCPSyncConfig{Seed: 7, RandomDrop: true})
	if a.SawtoothCorrelation != b.SawtoothCorrelation || a.Utilization != b.Utilization {
		t.Fatal("non-deterministic run")
	}
}

func TestTCPSyncPanics(t *testing.T) {
	for _, cfg := range []TCPSyncConfig{
		{Flows: 1, Capacity: 100, Rounds: 100, Seed: 1},
		{Flows: 10, Capacity: 5, Rounds: 100, Seed: 1},
		{Flows: 10, Capacity: 100, Rounds: 5, Seed: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid config did not panic")
				}
			}()
			RunTCPSync(cfg)
		}()
	}
}

func TestPearson(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if c := pearson(a, a); math.Abs(c-1) > 1e-12 {
		t.Fatalf("self correlation = %v", c)
	}
	b := []float64{4, 3, 2, 1}
	if c := pearson(a, b); math.Abs(c+1) > 1e-12 {
		t.Fatalf("anti correlation = %v", c)
	}
	flat := []float64{5, 5, 5, 5}
	if !math.IsNaN(pearson(a, flat)) {
		t.Fatal("correlation with constant series should be NaN")
	}
}
