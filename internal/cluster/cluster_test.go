package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"routesync/internal/rng"
)

func TestGrowSingle(t *testing.T) {
	c := Grow([]Member{{ID: 3, Expiry: 10}}, 0.11)
	if c.Size() != 1 || c.Members[0].ID != 3 || c.Members[0].Expiry != 10 {
		t.Fatalf("Grow single = %+v", c)
	}
}

func TestGrowPair(t *testing.T) {
	// Paper §4 Figure 5 scenario: node B's timer expires while node A is
	// still in its Tc busy period, so both join one cluster and reset at
	// t + 2·Tc.
	const tc = 0.11
	c := Grow([]Member{
		{ID: 0, Expiry: 100.00},
		{ID: 1, Expiry: 100.05}, // inside [100, 100.11)
		{ID: 2, Expiry: 140.00}, // far away
	}, tc)
	if c.Size() != 2 {
		t.Fatalf("size = %d, want 2", c.Size())
	}
	if c.Members[0].ID != 0 || c.Members[1].ID != 1 {
		t.Fatalf("members = %+v", c.Members)
	}
}

func TestGrowWindowExtension(t *testing.T) {
	// The window grows by Tc per member: expiry at 100.15 is outside the
	// one-member window [100, 100.11) but inside the two-member window
	// [100, 100.22) once 100.05 has joined.
	const tc = 0.11
	c := Grow([]Member{
		{ID: 0, Expiry: 100.00},
		{ID: 1, Expiry: 100.05},
		{ID: 2, Expiry: 100.15},
		{ID: 3, Expiry: 100.30}, // inside three-member window [100, 100.33)
		{ID: 4, Expiry: 100.45}, // outside four-member window [100, 100.44)
	}, tc)
	if c.Size() != 4 {
		t.Fatalf("size = %d, want 4 (%+v)", c.Size(), c)
	}
}

func TestGrowBoundaryExclusive(t *testing.T) {
	// An expiry exactly at the window end does not join.
	c := Grow([]Member{{ID: 0, Expiry: 0}, {ID: 1, Expiry: 0.11}}, 0.11)
	if c.Size() != 1 {
		t.Fatalf("boundary expiry joined: size = %d", c.Size())
	}
}

func TestGrowZeroTcExactTies(t *testing.T) {
	c := Grow([]Member{
		{ID: 2, Expiry: 5}, {ID: 0, Expiry: 5}, {ID: 1, Expiry: 5.0001},
	}, 0)
	if c.Size() != 2 {
		t.Fatalf("zero-Tc cluster size = %d, want 2 (exact ties only)", c.Size())
	}
	if c.Members[0].ID != 0 || c.Members[1].ID != 2 {
		t.Fatalf("tie-break by ID failed: %+v", c.Members)
	}
}

func TestGrowPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Grow(empty) did not panic")
		}
	}()
	Grow(nil, 0.1)
}

func TestGrowDoesNotMutateInput(t *testing.T) {
	in := []Member{{ID: 1, Expiry: 9}, {ID: 0, Expiry: 3}}
	Grow(in, 0.1)
	if in[0].ID != 1 || in[1].ID != 0 {
		t.Fatal("Grow mutated its input")
	}
}

// TestGrowProperties: with the window [start, start+size·Tc) opened by
// the first member's expiry, every member expiry lies inside it and every
// non-member expiry at or after its end.
func TestGrowProperties(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		tc := r.Uniform(0.01, 0.5)
		n := 1 + r.Intn(40)
		members := make([]Member, n)
		for i := range members {
			members[i] = Member{ID: i, Expiry: r.Uniform(0, 20)}
		}
		c := Grow(members, tc)
		start := c.Members[0].Expiry
		end := start + float64(c.Size())*tc
		inCluster := make(map[int]bool)
		for _, m := range c.Members {
			inCluster[m.ID] = true
			if m.Expiry < start || m.Expiry >= end {
				return false
			}
		}
		for _, m := range members {
			if !inCluster[m.ID] && m.Expiry < end && m.Expiry != start {
				// a non-member strictly inside the final window would
				// violate the fixed point (== Start ties join, handled
				// above via the membership map)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRoundTracker(t *testing.T) {
	rt := NewRoundTracker(10)
	rt.Observe(1, 2)
	rt.Observe(3, 5)
	rt.Observe(9, 1)
	rt.Observe(12, 4) // new round
	rt.Observe(25, 7) // skips round 2... lands in round 2 (20-30)
	times, sizes := rt.Finish()
	if len(times) != 3 {
		t.Fatalf("rounds = %d, want 3", len(times))
	}
	if sizes[0] != 5 || sizes[1] != 4 || sizes[2] != 7 {
		t.Fatalf("sizes = %v", sizes)
	}
	if times[0] != 0 || times[1] != 10 || times[2] != 20 {
		t.Fatalf("times = %v", times)
	}
}

func TestRoundTrackerEmpty(t *testing.T) {
	rt := NewRoundTracker(5)
	times, sizes := rt.Finish()
	if len(times) != 0 || len(sizes) != 0 {
		t.Fatal("empty tracker produced rounds")
	}
}

func TestRoundTrackerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero window did not panic")
		}
	}()
	NewRoundTracker(0)
}

func BenchmarkGrow20(b *testing.B) {
	r := rng.New(1)
	members := make([]Member, 20)
	for i := range members {
		members[i] = Member{ID: i, Expiry: r.Uniform(0, 121)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Grow(members, 0.11)
	}
}

// checkSortMembers sorts each case with SortMembers and checks that the
// output is in (Expiry, ID) order and a permutation of the input, both
// judged against a reference written here.
func checkSortMembers(t *testing.T, cases map[string][]Member) {
	t.Helper()
	for name, ms := range cases {
		t.Run(name, func(t *testing.T) {
			count := make(map[Member]int, len(ms))
			for _, m := range ms {
				count[m]++
			}
			SortMembers(ms)
			for i := 1; i < len(ms); i++ {
				a, b := ms[i-1], ms[i]
				if a.Expiry > b.Expiry || (a.Expiry == b.Expiry && a.ID >= b.ID) {
					t.Fatalf("out of order at %d: %+v after %+v", i, b, a)
				}
			}
			for _, m := range ms {
				count[m]--
			}
			for m, c := range count {
				if c != 0 {
					t.Fatalf("not a permutation: %+v count off by %d", m, c)
				}
			}
		})
	}
}

// sortInput builds n members whose expiries come from expiry.
func sortInput(n int, expiry func(i int) float64) []Member {
	ms := make([]Member, n)
	for i := range ms {
		ms[i] = Member{ID: i, Expiry: expiry(i)}
	}
	return ms
}

// sortTestLen is the input size of the SortMembers tests. The test names
// date from a range-bucket path SortMembers used to take on large inputs;
// the adversarial inputs stay, checked on the one comparison sort.
const sortTestLen = 3000

// TestBucketSortMatchesComparison checks SortMembers on adversarial
// expiry distributions: uniform, heavy exact ties, skew (one far outlier,
// the rest crowded together), already sorted and reversed.
func TestBucketSortMatchesComparison(t *testing.T) {
	const n = sortTestLen
	r := rng.New(11)
	checkSortMembers(t, map[string][]Member{
		"uniform": sortInput(n, func(int) float64 { return r.Uniform(0, 1000) }),
		"ties":    sortInput(n, func(int) float64 { return float64(r.Intn(5)) }),
		"skew": sortInput(n, func(i int) float64 {
			if i == 0 {
				return 1e9 // one far outlier; the rest crowd into [0, 1)
			}
			return r.Uniform(0, 1)
		}),
		"sorted":   sortInput(n, func(i int) float64 { return float64(i) * 0.001 }),
		"reversed": sortInput(n, func(i int) float64 { return float64(n-i) * 0.001 }),
	})
}

// TestBucketSortDegenerate checks SortMembers on degenerate inputs:
// all-equal expiries, where only the ID tie-break orders, and non-finite
// expiries.
func TestBucketSortDegenerate(t *testing.T) {
	const n = sortTestLen
	allEqual := make([]Member, n)
	for i := range allEqual {
		allEqual[i] = Member{ID: n - 1 - i, Expiry: 7}
	}
	withInf := sortInput(n, func(i int) float64 { return float64(n - i) })
	withInf[3].Expiry = math.Inf(1)
	withInf[5].Expiry = math.Inf(-1)
	checkSortMembers(t, map[string][]Member{
		"all-equal": allEqual,
		"with-inf":  withInf,
	})
}
