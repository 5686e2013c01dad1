package periodic

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"routesync/internal/jitter"
	"routesync/internal/rng"
)

// ClusterSizes returns the sorted (descending) sizes of the clusters in
// the current pending-timer partition.
func (s *System) ClusterSizes() []int {
	var sizes []int
	s.pendingClusters(func(size int) { sizes = append(sizes, size) })
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return sizes
}

// PhaseEntropy returns the normalized Shannon entropy of the pending
// phases over `bins` equal offset bins: 1 for perfectly uniform phases,
// 0 when every timer shares one bin. Another lens on the same
// transition, which confirms that synchronization collapses the phase
// distribution.
func (s *System) PhaseEntropy(bins int) float64 {
	if bins < 2 {
		panic("periodic: PhaseEntropy needs at least 2 bins")
	}
	window := s.RoundWindow()
	counts := make([]int, bins)
	for _, e := range s.expiry {
		b := int(math.Mod(e, window) / window * float64(bins))
		if b >= bins {
			b = bins - 1
		}
		counts[b]++
	}
	var h float64
	n := float64(s.cfg.N)
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		h -= p * math.Log(p)
	}
	max := math.Log(math.Min(n, float64(bins)))
	if max == 0 {
		return 0
	}
	return h / max
}

func TestOrderParameterSynchronized(t *testing.T) {
	cfg := Paper(20, 0.1, 1)
	cfg.Start = StartSynchronized
	s := New(cfg)
	if r := s.OrderParameter(); r < 0.9999 {
		t.Fatalf("synchronized order parameter = %v, want ~1", r)
	}
}

func TestOrderParameterUnsynchronized(t *testing.T) {
	// Uniform random phases: R concentrates near 1/sqrt(N); assert well
	// below the synchronized value across seeds.
	var worst float64
	for seed := int64(1); seed <= 10; seed++ {
		s := New(Paper(20, 0.1, seed))
		if r := s.OrderParameter(); r > worst {
			worst = r
		}
	}
	if worst > 0.6 {
		t.Fatalf("unsynchronized order parameter reached %v, want < 0.6", worst)
	}
}

func TestOrderParameterRisesThroughSynchronization(t *testing.T) {
	if testing.Short() {
		t.Skip("long run")
	}
	s := New(Paper(20, 0.1, 1))
	start := s.OrderParameter()
	res := s.RunUntilSynchronized(5e5)
	if !res.Reached {
		t.Skip("seed did not synchronize in horizon")
	}
	end := s.OrderParameter()
	if end < 0.95 {
		t.Fatalf("order parameter after synchronization = %v, want ~1", end)
	}
	if end <= start {
		t.Fatalf("order parameter did not rise: %v -> %v", start, end)
	}
}

func TestClusterSizesPartition(t *testing.T) {
	s := New(Paper(5, 0.1, 2))
	s.SetExpiries([]float64{10, 10.05, 10.15, 50, 80})
	sizes := s.ClusterSizes()
	if len(sizes) != 3 || sizes[0] != 3 || sizes[1] != 1 || sizes[2] != 1 {
		t.Fatalf("sizes = %v, want [3 1 1]", sizes)
	}
	total := 0
	for _, v := range sizes {
		total += v
	}
	if total != 5 {
		t.Fatalf("sizes don't cover all routers: %v", sizes)
	}
}

// TestClusterSizesCoversAll: on random phases and Tc, the pending-cluster
// sizes are positive and sum to N, so every router is counted once.
func TestClusterSizesCoversAll(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(50)
		s := New(Config{N: n, Tc: r.Uniform(0.01, 0.3), Jitter: jitter.Uniform{Tp: 121, Tr: 1}, Seed: seed})
		phases := make([]float64, n)
		for i := range phases {
			phases[i] = r.Uniform(0, 10)
		}
		s.SetExpiries(phases)
		total := 0
		for _, k := range s.ClusterSizes() {
			if k < 1 {
				return false
			}
			total += k
		}
		return total == n
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPhaseEntropyExtremes(t *testing.T) {
	sync := New(Config{N: 20, Tc: 0.11, Jitter: jitter.Uniform{Tp: 121, Tr: 0.1}, Start: StartSynchronized, Seed: 1})
	if h := sync.PhaseEntropy(32); h > 0.01 {
		t.Fatalf("synchronized entropy = %v, want ~0", h)
	}
	unsync := New(Paper(20, 0.1, 3))
	if h := unsync.PhaseEntropy(32); h < 0.5 {
		t.Fatalf("unsynchronized entropy = %v, want high", h)
	}
}

func TestPhaseEntropyPanics(t *testing.T) {
	s := New(Paper(5, 0.1, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("PhaseEntropy(1) did not panic")
		}
	}()
	s.PhaseEntropy(1)
}

func TestCoherenceTrace(t *testing.T) {
	s := New(Paper(20, 0.1, 1))
	times, r := s.CoherenceTrace(12111, 1211.1)
	if len(times) != len(r) || len(times) < 8 {
		t.Fatalf("trace lengths %d/%d", len(times), len(r))
	}
	for i, v := range r {
		if v < 0 || v > 1+1e-9 {
			t.Fatalf("R[%d] = %v out of [0,1]", i, v)
		}
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			t.Fatal("times not increasing")
		}
	}
}

func TestCoherenceTracePanics(t *testing.T) {
	s := New(Paper(5, 0.1, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("zero sampling interval did not panic")
		}
	}()
	s.CoherenceTrace(100, 0)
}

func TestLargestPendingMatchesClusterSizes(t *testing.T) {
	s := New(Paper(20, 0.3, 9))
	for i := 0; i < 200; i++ {
		s.Step()
		sizes := s.ClusterSizes()
		if s.LargestPending() != sizes[0] {
			t.Fatalf("LargestPending=%d, ClusterSizes[0]=%d", s.LargestPending(), sizes[0])
		}
	}
}

func TestOrderParameterBounds(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		s := New(Paper(10, 1.0, seed))
		for i := 0; i < 50; i++ {
			s.Step()
			r := s.OrderParameter()
			if r < -1e-12 || r > 1+1e-12 || math.IsNaN(r) {
				t.Fatalf("R = %v out of bounds", r)
			}
		}
	}
}

// TestLargestPendingZeroAllocs pins LargestPending's sort-and-walk at 0
// allocs/op on a heap-engine and a bucket-engine system; RunUntilBroken
// calls it after every Step.
func TestLargestPendingZeroAllocs(t *testing.T) {
	for _, n := range []int{20, 1000} {
		tp := 6.05 * float64(n)
		s := New(Config{N: n, Tc: 0.11, Jitter: jitter.Uniform{Tp: tp, Tr: tp / 20}, Seed: 1})
		if a := testing.AllocsPerRun(100, func() { s.LargestPending() }); a != 0 {
			t.Errorf("N=%d: LargestPending allocs/op = %v, want 0", n, a)
		}
	}
}
