package markov

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"routesync/internal/rng"
)

// TransitionMatrix returns the full (N+1)×(N+1) matrix with
// m[i][j] = p(i,j); row/column 0 is unused padding so indices match
// states. This is the paper's Figure 9 in data form.
func (c *Chain) TransitionMatrix() [][]float64 {
	n := c.p.N
	m := make([][]float64, n+1)
	for i := range m {
		m[i] = make([]float64, n+1)
	}
	for i := 1; i <= n; i++ {
		if i > 1 {
			m[i][i-1] = c.dn[i]
		}
		if i < n {
			m[i][i+1] = c.up[i]
		}
		m[i][i] = c.PStay(i)
	}
	return m
}

// PaperG evaluates g(i) for i in 1..N via the paper's Eq 5 recursion
//
//	g(i) − ((p↑+p↓)/p↓)·g(i+1) + (p↑/p↓)·g(i+2) = d(i)
//	d(i) = t(i+1,i) + (p↑/p↓)·t(i+1,i+2)
//
// with p↑ = p(i+1,i+2), p↓ = p(i+1,i) and g(N) = 0, solved backward. As
// the paper notes, g does not depend on p(1,2) or f(2).
func (c *Chain) PaperG(v TVariant) []float64 {
	n := c.p.N
	g := make([]float64, n+2) // g[n+1] padding = 0 for the i = n−1 step
	for i := n - 1; i >= 1; i-- {
		pUp := c.up[i+1] // p(i+1,i+2)
		pDn := c.dn[i+1] // p(i+1,i)
		if pDn == 0 {
			g[i] = math.Inf(1)
			continue
		}
		di := c.tval(i+1, false, v) + (pUp/pDn)*c.tval(i+1, true, v)
		g[i] = di + ((pUp+pDn)/pDn)*g[i+1] - (pUp/pDn)*g[i+2]
		if math.IsNaN(g[i]) {
			g[i] = math.Inf(1)
		}
	}
	return g[:n+1]
}

// paperParams are the parameters used throughout the paper's §5 figures.
func paperParams(tr float64) Params {
	return Params{N: 20, Tp: 121, Tr: tr, Tc: 0.11, F2: 19}
}

func mustNew(t *testing.T, p Params) *Chain {
	t.Helper()
	c, err := New(p)
	if err != nil {
		t.Fatalf("New(%+v): %v", p, err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	bad := []Params{
		{N: 1, Tp: 121, Tr: 0.1, Tc: 0.11},
		{N: 20, Tp: 0, Tr: 0.1, Tc: 0.11},
		{N: 20, Tp: 121, Tr: -1, Tc: 0.11},
		{N: 20, Tp: 121, Tr: 0.1, Tc: -0.11},
		{N: 20, Tp: 121, Tr: 0.1, Tc: 0.11, P12: 2},
		{N: 20, Tp: 121, Tr: 0.1, Tc: 0.11, F2: -5},
	}
	for _, p := range bad {
		if _, err := New(p); !errors.Is(err, ErrBadParams) {
			t.Errorf("New(%+v) err = %v, want ErrBadParams", p, err)
		}
	}
}

func TestTransitionProbabilitiesEq1(t *testing.T) {
	// Eq 1 with the paper's parameters and Tr = 0.1:
	// p(i,i−1) = (1 − 0.11/0.2)^(i−1) = 0.45^(i−1).
	c := mustNew(t, paperParams(0.1))
	for i := 2; i <= 20; i++ {
		want := math.Pow(0.45, float64(i-1))
		if got := c.PDown(i); math.Abs(got-want) > 1e-12 {
			t.Fatalf("PDown(%d) = %v, want %v", i, got, want)
		}
	}
	if c.PDown(1) != 0 {
		t.Fatal("PDown(1) must be 0")
	}
}

func TestTransitionProbabilitiesEq2(t *testing.T) {
	c := mustNew(t, paperParams(0.1))
	for i := 2; i <= 19; i++ {
		drift := float64(i-1)*0.11 - 0.1*float64(i-1)/float64(i+1)
		want := 1 - math.Exp(-(float64(20-i+1)/121)*drift)
		if got := c.PUp(i); math.Abs(got-want) > 1e-12 {
			t.Fatalf("PUp(%d) = %v, want %v", i, got, want)
		}
	}
	if c.PUp(20) != 0 {
		t.Fatal("PUp(N) must be 0")
	}
}

func TestDriftSign(t *testing.T) {
	// Growth from size i is impossible once Tr >= (i+1)·Tc.
	c := mustNew(t, paperParams(3.5*0.11)) // Tr = 3.5·Tc > 3·Tc
	if c.Drift(2) >= 0 {
		t.Fatalf("Drift(2) = %v, want negative at Tr = 3.5 Tc", c.Drift(2))
	}
	if c.PUp(2) != 0 {
		t.Fatalf("PUp(2) = %v, want 0 (negative drift)", c.PUp(2))
	}
	// but larger clusters can still grow
	if c.PUp(10) <= 0 {
		t.Fatalf("PUp(10) = %v, want > 0", c.PUp(10))
	}
}

func TestPDownZeroBelowHalfTc(t *testing.T) {
	// Paper §5: "we assume that Tr > Tc/2; if not, then a cluster never
	// breaks up".
	c := mustNew(t, paperParams(0.05)) // Tr < Tc/2 = 0.055
	for i := 2; i <= 20; i++ {
		if c.PDown(i) != 0 {
			t.Fatalf("PDown(%d) = %v, want 0 for Tr <= Tc/2", i, c.PDown(i))
		}
	}
	if !math.IsInf(c.G1(), 1) {
		t.Fatalf("G1 = %v, want +Inf (break-up impossible)", c.G1())
	}
	if got := c.FractionUnsynchronized(); got != 0 {
		t.Fatalf("fraction unsynchronized = %v, want 0", got)
	}
}

func TestProbabilitiesAreProbabilities(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		p := Params{
			N:  2 + r.Intn(40),
			Tp: r.Uniform(10, 300),
			Tr: r.Uniform(0, 2),
			Tc: r.Uniform(0.001, 0.5),
		}
		c, err := New(p)
		if err != nil {
			return false
		}
		for i := 1; i <= p.N; i++ {
			up, dn, st := c.PUp(i), c.PDown(i), c.PStay(i)
			if up < 0 || up > 1 || dn < 0 || dn > 1 || st < -1e-12 || st > 1+1e-12 {
				return false
			}
			if math.Abs(up+dn+st-1) > 1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFMonotoneAndAnchored(t *testing.T) {
	c := mustNew(t, paperParams(0.1))
	f := c.F()
	if f[1] != 0 {
		t.Fatalf("f(1) = %v", f[1])
	}
	if f[2] != 19 {
		t.Fatalf("f(2) = %v, want configured 19", f[2])
	}
	for i := 2; i <= 20; i++ {
		if f[i] < f[i-1] {
			t.Fatalf("f not monotone at %d: %v < %v", i, f[i], f[i-1])
		}
	}
	if math.IsInf(f[20], 1) {
		t.Fatal("f(N) infinite for Tr = 0.1")
	}
}

func TestGMonotoneAndAnchored(t *testing.T) {
	c := mustNew(t, paperParams(0.3))
	g := c.G()
	if g[20] != 0 {
		t.Fatalf("g(N) = %v", g[20])
	}
	for i := 1; i < 20; i++ {
		if g[i] < g[i+1] {
			t.Fatalf("g not monotone at %d: %v < %v", i, g[i], g[i+1])
		}
	}
	if math.IsInf(g[1], 1) {
		t.Fatal("g(1) infinite for Tr = 0.3")
	}
}

// TestPaperRecursionMatchesExact: with the conditional wait time the
// paper's Eq 3/5 recursions are algebraically identical to the exact
// birth–death solver.
func TestPaperRecursionMatchesExact(t *testing.T) {
	for _, tr := range []float64{0.08, 0.1, 0.2, 0.3} {
		c := mustNew(t, paperParams(tr))
		f, pf := c.F(), c.PaperF(TConditional)
		for i := 1; i <= 20; i++ {
			if relDiff(f[i], pf[i]) > 1e-6 {
				t.Fatalf("Tr=%v: PaperF(%d) = %v, exact = %v", tr, i, pf[i], f[i])
			}
		}
		g, pg := c.G(), c.PaperG(TConditional)
		for i := 1; i <= 20; i++ {
			if relDiff(g[i], pg[i]) > 1e-6 {
				t.Fatalf("Tr=%v: PaperG(%d) = %v, exact = %v", tr, i, pg[i], g[i])
			}
		}
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	if math.IsInf(a, 1) && math.IsInf(b, 1) {
		return 0
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}

// TestPrintedTUnderestimates: the printed t(j,·) formulas are
// P(move)·E[wait] ≤ E[wait], so the printed-variant times are never larger.
func TestPrintedTUnderestimates(t *testing.T) {
	c := mustNew(t, paperParams(0.2))
	f, pf := c.PaperF(TConditional), c.PaperF(TPrinted)
	for i := 3; i <= 20; i++ {
		if pf[i] > f[i]+1e-9 {
			t.Fatalf("printed f(%d) = %v exceeds conditional %v", i, pf[i], f[i])
		}
	}
	g, pg := c.PaperG(TConditional), c.PaperG(TPrinted)
	for i := 1; i <= 18; i++ {
		if pg[i] > g[i]+1e-9 {
			t.Fatalf("printed g(%d) = %v exceeds conditional %v", i, pg[i], g[i])
		}
	}
}

// TestGIndependentOfF2P12: the paper notes g does not depend on p(1,2) or
// f(2).
func TestGIndependentOfF2P12(t *testing.T) {
	a := mustNew(t, Params{N: 20, Tp: 121, Tr: 0.3, Tc: 0.11, F2: 19, P12: 0.05})
	b := mustNew(t, Params{N: 20, Tp: 121, Tr: 0.3, Tc: 0.11, F2: 500, P12: 0.9})
	ga, gb := a.G(), b.G()
	for i := 1; i <= 20; i++ {
		if ga[i] != gb[i] {
			t.Fatalf("g(%d) depends on f2/p12: %v vs %v", i, ga[i], gb[i])
		}
	}
}

// TestFNGrowsWithTr / TestG1ShrinksWithTr: the paper's Figure 12 shape —
// more randomness makes synchronization slower to form and faster to break.
func TestFNGrowsWithTr(t *testing.T) {
	prev := 0.0
	// Note 0.33 = 3·Tc exactly zeroes the size-2 drift and makes FN
	// infinite, so the sweep stays strictly below it.
	for _, tr := range []float64{0.07, 0.11, 0.22, 0.32} {
		c := mustNew(t, paperParams(tr))
		fn := c.FN()
		if math.IsInf(fn, 1) {
			t.Fatalf("FN infinite at Tr=%v", tr)
		}
		if fn <= prev {
			t.Fatalf("FN not increasing at Tr=%v: %v <= %v", tr, fn, prev)
		}
		prev = fn
	}
}

func TestG1ShrinksWithTr(t *testing.T) {
	prev := math.Inf(1)
	for _, tr := range []float64{0.1, 0.2, 0.3, 0.44} {
		c := mustNew(t, paperParams(tr))
		g1 := c.G1()
		if g1 >= prev {
			t.Fatalf("G1 not decreasing at Tr=%v: %v >= %v", tr, g1, prev)
		}
		prev = g1
	}
}

// TestFractionTransition reproduces the Figure 14 shape: the fraction of
// time unsynchronized jumps from ~0 to ~1 over a narrow Tr band.
func TestFractionTransition(t *testing.T) {
	lo := mustNew(t, paperParams(0.6*0.11)) // low randomization region
	hi := mustNew(t, paperParams(3.0*0.11)) // high randomization region
	if f := lo.FractionUnsynchronized(); f > 0.1 {
		t.Fatalf("fraction at Tr=0.6Tc = %v, want ~0 (predominately synchronized)", f)
	}
	if f := hi.FractionUnsynchronized(); f < 0.9 {
		t.Fatalf("fraction at Tr=3Tc = %v, want ~1 (predominately unsynchronized)", f)
	}
}

// TestFractionMonotoneInTr: more randomness never decreases the fraction
// of time unsynchronized.
func TestFractionMonotoneInTr(t *testing.T) {
	prev := -1.0
	for tr := 0.06; tr <= 0.5; tr += 0.02 {
		c := mustNew(t, paperParams(tr))
		f := c.FractionUnsynchronized()
		if math.IsNaN(f) {
			t.Fatalf("NaN fraction at Tr=%v", tr)
		}
		if f < prev-1e-9 {
			t.Fatalf("fraction decreased at Tr=%v: %v < %v", tr, f, prev)
		}
		prev = f
	}
}

// TestFractionTransitionInN reproduces the Figure 15 shape: with Tr fixed
// at 0.3 s, adding routers flips the system from predominately
// unsynchronized to predominately synchronized.
func TestFractionTransitionInN(t *testing.T) {
	frac := func(n int) float64 {
		c := mustNew(t, Params{N: n, Tp: 121, Tr: 0.3, Tc: 0.11, F2: 19})
		return c.FractionUnsynchronized()
	}
	small, large := frac(5), frac(28)
	if small < 0.9 {
		t.Fatalf("fraction at N=5 = %v, want ~1", small)
	}
	if large > 0.1 {
		t.Fatalf("fraction at N=28 = %v, want ~0", large)
	}
	// and monotone in between (up to the p(1,2) estimator's numerical
	// integration wiggle, hence the loose tolerance)
	prev := 2.0
	for n := 4; n <= 28; n += 2 {
		f := frac(n)
		if f > prev+1e-4 {
			t.Fatalf("fraction increased with N at %d: %v > %v", n, f, prev)
		}
		prev = f
	}
}

func TestFNInfiniteAtHighTr(t *testing.T) {
	// Tr >= 3·Tc makes growth from size 2 impossible: f(N) = +Inf and the
	// system is unsynchronized essentially forever (Figure 12's right
	// region, clamped at the paper's 10^12 s axis).
	c := mustNew(t, paperParams(3.3*0.11))
	if !math.IsInf(c.FN(), 1) {
		t.Fatalf("FN = %v, want +Inf at Tr = 3.3 Tc", c.FN())
	}
	if f := c.FractionUnsynchronized(); f != 1 {
		t.Fatalf("fraction = %v, want 1", f)
	}
}

func TestRoundSeconds(t *testing.T) {
	c := mustNew(t, paperParams(0.1))
	if c.RoundSeconds() != 121.11 {
		t.Fatalf("RoundSeconds = %v", c.RoundSeconds())
	}
}

func TestResolvedDefaults(t *testing.T) {
	c := mustNew(t, Params{N: 20, Tp: 121, Tr: 0.1, Tc: 0.11})
	if c.ResolvedP12() <= 0 || c.ResolvedP12() > 1 {
		t.Fatalf("estimated p12 = %v", c.ResolvedP12())
	}
	want := 1 / c.ResolvedP12()
	if math.Abs(c.ResolvedF2()-want) > 1e-9 {
		t.Fatalf("ResolvedF2 = %v, want 1/p12 = %v", c.ResolvedF2(), want)
	}
	// explicit values pass through
	c2 := mustNew(t, Params{N: 20, Tp: 121, Tr: 0.1, Tc: 0.11, P12: 0.25, F2: 40})
	if c2.ResolvedP12() != 0.25 || c2.ResolvedF2() != 40 {
		t.Fatalf("explicit p12/f2 not honored: %v/%v", c2.ResolvedP12(), c2.ResolvedF2())
	}
}

func TestTransitionMatrix(t *testing.T) {
	c := mustNew(t, paperParams(0.2))
	m := c.TransitionMatrix()
	if len(m) != 21 {
		t.Fatalf("matrix size %d", len(m))
	}
	for i := 1; i <= 20; i++ {
		var row float64
		for j := 1; j <= 20; j++ {
			if m[i][j] < 0 {
				t.Fatalf("negative entry m[%d][%d] = %v", i, j, m[i][j])
			}
			if j < i-1 || j > i+1 {
				if m[i][j] != 0 {
					t.Fatalf("non-tridiagonal entry m[%d][%d] = %v", i, j, m[i][j])
				}
			}
			row += m[i][j]
		}
		if math.Abs(row-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, row)
		}
	}
}

func TestStationarySumsToOne(t *testing.T) {
	c := mustNew(t, paperParams(0.2))
	pi := c.Stationary()
	if pi == nil {
		t.Fatal("nil stationary distribution")
	}
	var sum float64
	for i := 1; i <= 20; i++ {
		if pi[i] < 0 {
			t.Fatalf("negative pi[%d] = %v", i, pi[i])
		}
		sum += pi[i]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("stationary sums to %v", sum)
	}
}

func TestStationaryDetailedBalance(t *testing.T) {
	c := mustNew(t, paperParams(0.25))
	pi := c.Stationary()
	for i := 1; i < 20; i++ {
		lhs := pi[i] * c.PUp(i)
		rhs := pi[i+1] * c.PDown(i+1)
		if relDiff(lhs, rhs) > 1e-6 && math.Max(lhs, rhs) > 1e-300 {
			t.Fatalf("detailed balance violated at %d: %v vs %v", i, lhs, rhs)
		}
	}
}

// TestStationaryMatchesFractionQualitatively: in the high-randomization
// region the stationary mass concentrates on small clusters, and in the
// low region on large ones.
func TestStationaryMatchesFractionQualitatively(t *testing.T) {
	mass := func(tr float64, loStates int) float64 {
		c := mustNew(t, paperParams(tr))
		pi := c.Stationary()
		var m float64
		for i := 1; i <= loStates; i++ {
			m += pi[i]
		}
		return m
	}
	if m := mass(3.0*0.11, 5); m < 0.9 {
		t.Fatalf("high-Tr small-cluster mass = %v, want ~1", m)
	}
	if m := mass(0.6*0.11, 5); m > 0.1 {
		t.Fatalf("low-Tr small-cluster mass = %v, want ~0", m)
	}
}

func TestEstimateP12Behaviour(t *testing.T) {
	// More routers pack the phase space tighter: p(1,2) grows with N.
	pSmall := EstimateP12(5, 121, 0.1, 0.11)
	pLarge := EstimateP12(40, 121, 0.1, 0.11)
	if !(pLarge > pSmall) {
		t.Fatalf("p12 not increasing in N: %v vs %v", pSmall, pLarge)
	}
	// Degenerate inputs
	if EstimateP12(1, 121, 0.1, 0.11) != 0 {
		t.Fatal("p12 with one router should be 0")
	}
	if EstimateP12(20, 0, 0.1, 0.11) != 0 {
		t.Fatal("p12 with Tp=0 should be 0")
	}
	// Tr = 0: pairs merge only if the initial gap is below Tc
	p := EstimateP12(20, 121, 0, 0.11)
	if p <= 0 || p > 1 {
		t.Fatalf("p12 at Tr=0 = %v", p)
	}
}

func TestEstimateP12InUnitRange(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		p := EstimateP12(2+r.Intn(50), r.Uniform(1, 300), r.Uniform(0, 5), r.Uniform(0, 1))
		return p >= 0 && p <= 1
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHitUpDownPositive(t *testing.T) {
	c := mustNew(t, paperParams(0.2))
	h := c.HitUp()
	for i := 1; i <= 19; i++ {
		if !(h[i] > 0) {
			t.Fatalf("h(%d) = %v, want > 0", i, h[i])
		}
	}
	d := c.HitDown()
	for i := 2; i <= 20; i++ {
		if !(d[i] > 0) {
			t.Fatalf("d(%d) = %v, want > 0", i, d[i])
		}
	}
	// d(N) = 1/p(N,N−1) exactly
	if relDiff(d[20], 1/c.PDown(20)) > 1e-12 {
		t.Fatalf("d(N) = %v, want %v", d[20], 1/c.PDown(20))
	}
}
