package rng

import (
	"math"
	"testing"
	"testing/quick"
)

// Triangular returns the difference of two independent U[−half, +half]
// draws, i.e. a symmetric triangular variate on [−2·half, +2·half]. This is
// the per-round relative displacement of two lone routers in the Periodic
// Messages model.
func (s *Source) Triangular(half float64) float64 {
	return s.Uniform(-half, half) - s.Uniform(-half, half)
}

// Perm returns a uniformly random permutation of [0, n) using the
// Fisher–Yates shuffle.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// TestKnownSequence pins the classic Park–Miller fixture: starting from
// seed 1, the 10,000th output of the minimal standard generator must be
// 1043618065 (Park & Miller, CACM 1988).
func TestKnownSequence(t *testing.T) {
	s := New(1)
	var v int64
	for i := 0; i < 10000; i++ {
		v = s.Next()
	}
	if v != 1043618065 {
		t.Fatalf("10000th value from seed 1 = %d, want 1043618065", v)
	}
}

func TestFirstValues(t *testing.T) {
	// First few outputs from seed 1: 16807, 282475249, 1622650073, ...
	want := []int64{16807, 282475249, 1622650073, 984943658, 1144108930}
	s := New(1)
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("value %d from seed 1 = %d, want %d", i, got, w)
		}
	}
	if New(2).Next() == want[0] {
		t.Fatal("seed 2 replays seed 1's stream")
	}
}

func TestSeedFolding(t *testing.T) {
	cases := []struct {
		seed int64
		want int64
	}{
		{0, 1},            // zero is a fixed point, folded to 1
		{Modulus, 1},      // multiple of modulus folds to 1
		{-1, Modulus - 1}, // negatives fold up
		{Modulus + 5, 5},  // wraps
		{-Modulus - 3, Modulus - 3},
	}
	for _, c := range cases {
		s := New(c.seed)
		if s.state != c.want {
			t.Errorf("New(%d).state = %d, want %d", c.seed, s.state, c.want)
		}
	}
}

func TestNextRange(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		s := New(seed)
		for i := 0; i < 100; i++ {
			v := s.Next()
			if v < 1 || v >= Modulus {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestDeterminism(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 50; i++ {
			if a.Next() != b.Next() {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(42)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(7)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestUniform(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Uniform(120.89, 121.11)
		if v < 120.89 || v >= 121.11 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestUniformDegenerate(t *testing.T) {
	s := New(3)
	if v := s.Uniform(5, 5); v != 5 {
		t.Fatalf("Uniform(5,5) = %v, want 5", v)
	}
}

func TestUniformPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uniform(1,0) did not panic")
		}
	}()
	New(1).Uniform(1, 0)
}

func TestIntnRangeAndCoverage(t *testing.T) {
	s := New(11)
	seen := make(map[int]int)
	const n = 7
	for i := 0; i < 70000; i++ {
		v := s.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn(%d) = %d out of range", n, v)
		}
		seen[v]++
	}
	for i := 0; i < n; i++ {
		if seen[i] < 7000 {
			t.Errorf("value %d underrepresented: %d draws", i, seen[i])
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExponentialMean(t *testing.T) {
	s := New(5)
	const mean = 6.05 // Tp/(N−i+1) with paper's Tp=121, N=20
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := s.Exponential(mean)
		if v < 0 {
			t.Fatalf("Exponential < 0: %v", v)
		}
		sum += v
	}
	got := sum / n
	if math.Abs(got-mean)/mean > 0.02 {
		t.Fatalf("Exponential mean = %v, want ~%v", got, mean)
	}
}

func TestExponentialPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exponential(0) did not panic")
		}
	}()
	New(1).Exponential(0)
}

func TestTriangularRangeAndSymmetry(t *testing.T) {
	s := New(9)
	const half = 0.11
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := s.Triangular(half)
		if v <= -2*half || v >= 2*half {
			t.Fatalf("Triangular out of range: %v", v)
		}
		sum += v
	}
	if math.Abs(sum/n) > 0.002 {
		t.Fatalf("Triangular mean = %v, want ~0", sum/n)
	}
}

func TestBernoulli(t *testing.T) {
	s := New(13)
	const p = 0.3
	count := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bernoulli(p) {
			count++
		}
	}
	got := float64(count) / n
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) frequency = %v", p, got)
	}
}

func TestBernoulliEdges(t *testing.T) {
	s := New(1)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
	}
	// Bernoulli(1): Float64 < 1 always, so always true.
	for i := 0; i < 100; i++ {
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		s := New(seed)
		n := 1 + s.Intn(50)
		p := s.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitStreamsDiffer(t *testing.T) {
	parent := New(1234)
	a := parent.Split()
	b := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams agree on %d/100 draws", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	mk := func() []int64 {
		p := New(99)
		c := p.Split()
		out := make([]int64, 10)
		for i := range out {
			out[i] = c.Next()
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Split not deterministic at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func BenchmarkNext(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Next()
	}
}

func BenchmarkUniform(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Uniform(120.89, 121.11)
	}
}
