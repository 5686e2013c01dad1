package experiments

import (
	"math"
	"strings"
	"testing"

	"routesync/internal/jitter"
	"routesync/internal/rng"
	"routesync/internal/stats"
)

func TestExtCoherenceRises(t *testing.T) {
	r := ExtCoherence(quickModel())
	s := r.Series[0]
	if s.Len() < 10 {
		t.Fatalf("too few samples: %d", s.Len())
	}
	first, last := s.Y[0], s.Y[s.Len()-1]
	if last < 0.95 {
		t.Fatalf("final order parameter = %v, want ~1", last)
	}
	if first > 0.6 {
		t.Fatalf("initial order parameter = %v, want low", first)
	}
}

func TestExtStormContrast(t *testing.T) {
	r := ExtStorm(6, 1)
	if len(r.Series) != 2 {
		t.Fatalf("want two policies, got %d", len(r.Series))
	}
	fixed, jittered := r.Series[0], r.Series[1]
	// Deterministic timers: lock-step forever (spread stays at the
	// sentinel epsilon).
	for i, y := range fixed.Y {
		if y > 1e-3 {
			t.Fatalf("fixed-timer spread grew at round %d: %v", i, y)
		}
	}
	// Jittered timers: spread grows to a significant fraction of Tp.
	if last := jittered.Y[jittered.Len()-1]; last < 1 {
		t.Fatalf("jittered spread after storm = %v, want > 1 s", last)
	}
}

func TestExtNSweepFasterWithMoreRouters(t *testing.T) {
	if testing.Short() {
		t.Skip("long sweep")
	}
	r := ExtNSweep(0.1, []int{12, 30}, 3, 3e6, 1)
	s := r.Series[0]
	if s.Len() != 2 {
		t.Fatalf("series = %+v", s)
	}
	if math.IsInf(s.Y[0], 1) || math.IsInf(s.Y[1], 1) {
		t.Fatalf("sweep did not synchronize: %v", s.Y)
	}
	if !(s.Y[1] < s.Y[0]) {
		t.Fatalf("30 routers (%.3g s) not faster than 12 (%.3g s)", s.Y[1], s.Y[0])
	}
}

func TestExtPerRouterFixedPlateau(t *testing.T) {
	r := ExtPerRouterFixed([]float64{0.5, 10}, 1)
	s := r.Series[0]
	// Small spread (< N·Tc/2): the whole population stays one cluster.
	if s.Y[0] < 15 {
		t.Fatalf("small spread should stay clustered: %v", s.Y[0])
	}
	// Large spread: disperses to small residual clusters, but not
	// necessarily singletons (no repair mechanism).
	if s.Y[1] > 6 {
		t.Fatalf("large spread should disperse: %v", s.Y[1])
	}
	joined := strings.Join(r.Notes, " ")
	if !strings.Contains(joined, "no repair mechanism") {
		t.Fatal("missing drawback note")
	}
}

func TestExtProtocolComparison(t *testing.T) {
	r := ExtProtocolComparison()
	if len(r.Series) != 2 {
		t.Fatal("want noise-only and recommended series")
	}
	noise, rec := r.Series[0], r.Series[1]
	for i := 0; i < noise.Len(); i++ {
		if noise.Y[i] > 0.1 {
			t.Fatalf("profile %d with OS noise only should synchronize: %v", i, noise.Y[i])
		}
		if rec.Y[i] < 0.9 {
			t.Fatalf("profile %d with 10·Tc jitter should stay unsynchronized: %v", i, rec.Y[i])
		}
	}
	if noise.Len() != 5 {
		t.Fatalf("profiles = %d, want 5", noise.Len())
	}
}

func TestExtThresholdShape(t *testing.T) {
	r := ExtThreshold([]int{10, 20, 30, 50})
	s := r.Series[0]
	if s.Len() != 4 {
		t.Fatalf("points = %d", s.Len())
	}
	// Monotone nondecreasing in N...
	for i := 1; i < s.Len(); i++ {
		if s.Y[i] < s.Y[i-1]-1e-9 {
			t.Fatalf("threshold fell with N: %v", s.Y)
		}
	}
	// ...and saturating at 3·Tc (the size-2 drift cutoff).
	if math.Abs(s.Y[s.Len()-1]-3.0) > 0.01 {
		t.Fatalf("saturation = %v, want 3·Tc", s.Y[s.Len()-1])
	}
	// The paper's N=20 point sits near the Fig 14 transition (~1.9·Tc).
	if s.Y[1] < 1.5 || s.Y[1] > 2.3 {
		t.Fatalf("N=20 threshold = %v·Tc, want ~1.9", s.Y[1])
	}
}

func TestExtMixedPeriodsNoCrossLock(t *testing.T) {
	r := ExtMixedPeriods(0.1, 3e5, 1)
	if len(r.Series) != 2 {
		t.Fatalf("series = %d", len(r.Series))
	}
	// Mixed co-firings happen (crossings exist) but no persistent
	// cross-population cluster forms: the largest pending cluster never
	// spans a majority of the network.
	largest := r.Series[0]
	_, hi := largest.YRange()
	if hi > 10 {
		t.Fatalf("largest pending cluster = %v, want <= one population", hi)
	}
	mixed := r.Series[1]
	if mixed.Len() == 0 || mixed.Y[mixed.Len()-1] == 0 {
		t.Fatal("no mixed co-firings at all — crossings must occur")
	}
}

func TestExtMixedPeriodsJitterIndependentRate(t *testing.T) {
	// The co-firing count is drift-geometry-dominated: low and high
	// jitter give counts within a factor of two.
	lo := ExtMixedPeriods(0.1, 3e5, 1)
	hi := ExtMixedPeriods(1.1, 3e5, 1)
	cl := lo.Series[1].Y[lo.Series[1].Len()-1]
	ch := hi.Series[1].Y[hi.Series[1].Len()-1]
	if cl == 0 || ch == 0 {
		t.Fatalf("counts: %v vs %v", cl, ch)
	}
	ratio := cl / ch
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("co-firing rate strongly jitter-dependent: %v vs %v", cl, ch)
	}
}

func TestMixedPolicyDispatch(t *testing.T) {
	m := jitter.Mixed{
		Policies: map[int]jitter.Policy{3: jitter.None{Tp: 242}},
		Fallback: jitter.None{Tp: 121},
	}
	r := rng.New(1)
	if d := m.Delay(r, 3); d != 242 {
		t.Fatalf("override delay = %v", d)
	}
	if d := m.Delay(r, 0); d != 121 {
		t.Fatalf("fallback delay = %v", d)
	}
	if m.Mean() != 121 {
		t.Fatalf("mean = %v", m.Mean())
	}
	if m.String() == "" {
		t.Fatal("empty String")
	}
}

func TestAblationQueueing(t *testing.T) {
	r := AblationQueueing(400, 1)
	if len(r.Series) != 2 {
		t.Fatalf("series = %d", len(r.Series))
	}
	// Queueing trades loss for delay: fewer drops, higher p99.
	dropAll, queued := r.Series[0], r.Series[1]
	lossOf := func(s stats.Series) int {
		n := 0
		for _, y := range s.Y {
			if y < 0 {
				n++
			}
		}
		return n
	}
	maxOf := func(s stats.Series) float64 {
		_, hi := s.YRange()
		return hi
	}
	if lossOf(queued) >= lossOf(dropAll) {
		t.Fatalf("queueing did not reduce loss: %d vs %d", lossOf(queued), lossOf(dropAll))
	}
	if maxOf(queued) <= maxOf(dropAll) {
		t.Fatalf("queueing did not produce delay spikes: %v vs %v", maxOf(queued), maxOf(dropAll))
	}
}
