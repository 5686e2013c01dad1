package experiments

import (
	"os"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestSteadyStateFootprint is the GOGC=off smoke: it disables the
// garbage collector, runs quick configurations well past convergence,
// and asserts the total heap stays under a fixed ceiling per leg. With
// the collector off every allocation is permanent, so a steady state
// that still allocates — a pooled path quietly regressed — grows the
// heap linearly with simulated time and blows through the ceiling; the
// genuinely zero-alloc path costs only its build + warmup high-water
// mark. CI runs this with GOGC=off in the environment as well so the
// test-binary startup matches; the gate itself is SetGCPercent(-1).
//
// The netscale leg builds and runs ext_netscale's distance-vector
// routers; the pathvector leg times only the steady state of ext_bgp's
// path-vector ASes, whose flushes encode straight into each packet's
// payload, so an allocation per update message fails it.
//
// Skipped unless ROUTESYNC_FOOTPRINT=1: with the collector off the
// ceiling depends only on the scenario (not machine state), but the
// test pins ~10× the usual package test memory and has its own CI step.
func TestSteadyStateFootprint(t *testing.T) {
	if os.Getenv("ROUTESYNC_FOOTPRINT") == "" {
		t.Skip("set ROUTESYNC_FOOTPRINT=1 (CI runs this step with GOGC=off)")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	t.Run("netscale", func(t *testing.T) {
		// Build + convergence + steady windows: observed 3.42 MB; the
		// ceiling is ~2.5×. A leak of even one small object per packet
		// event adds tens of MB over this horizon and fails
		// unambiguously.
		checkGrowth(t, 9, func() { BuildNetScale(500, 25, 4, 1, 600, nil).Run() })
	})
	t.Run("pathvector", func(t *testing.T) {
		// 300 ASes at MRAI 5 s, measured from 300 s, well past
		// convergence, to 1200 s: about 26k update flushes. Observed
		// 0.14–0.15 MB in about 100 allocations; the ceiling is ~2.5×. One
		// allocation per flush, even a 16-byte one, adds over 0.4 MB.
		sc := BuildBGP(300, 1, 5, "none", 1, 1200, nil)
		sc.Net.RunUntil(300)
		checkGrowth(t, 0.4, sc.Run)
	})
}

// checkGrowth runs fn and fails t if the heap grew by more than
// ceilingMB meanwhile.
func checkGrowth(t *testing.T, ceilingMB float64, fn func()) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	grewMB := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("heap growth: %.2f MB in %d allocations", grewMB, after.Mallocs-before.Mallocs)
	if grewMB > ceilingMB {
		t.Errorf("heap grew %.2f MB with GC off, ceiling %g MB — steady state is allocating", grewMB, ceilingMB)
	}
}
