package markov

import (
	"math"
	"testing"
	"testing/quick"

	"routesync/internal/rng"
)

// This file implements the paper's Equation 4/6 closed forms — the nested
// sum-of-products solutions of the Eq 3/5 recursions — in log space. The
// printed rendering of Eq 4 in the SIGCOMM proceedings is typographically
// mangled, but the closed form of the birth–death recursion is standard:
//
//	h(i) = 1/p(i) + (q(i)/p(i))·h(i−1)
//	     = Σ_{k=2..i} (1/p(k)) Π_{j=k+1..i} q(j)/p(j)
//	       + f(2)·Π_{j=2..i} q(j)/p(j)
//	f(i) = f(2) + Σ_{k=2..i−1} h(k)
//
// with p(k) = p(k,k+1) and q(k) = p(k,k−1), and symmetrically for g. The
// forward recursions in F and G are the numerically cheap evaluation the
// package ships; the closed forms here are the tests' oracle for them,
// faithful to the paper's presentation, and their log-space products stay
// finite-exponent even when intermediate products overflow float64.

// logAdd returns log(exp(a) + exp(b)) stably.
func logAdd(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if math.IsInf(b, -1) {
		return a
	}
	if a < b {
		a, b = b, a
	}
	return a + math.Log1p(math.Exp(b-a))
}

// ClosedFormF evaluates f(i) for i in 1..N via the Equation 4 closed form
// in log space. It returns the same values as F (tests assert agreement)
// and +Inf where growth is impossible.
func (c *Chain) ClosedFormF() []float64 {
	n := c.p.N
	f := make([]float64, n+1)
	if n < 2 {
		return f
	}
	// logRatio[j] = log(q(j)/p(j)); +Inf marks an impossible up-move.
	logRatio := make([]float64, n)
	logInvP := make([]float64, n)
	for j := 2; j <= n-1; j++ {
		if c.up[j] == 0 {
			logRatio[j] = math.Inf(1)
			logInvP[j] = math.Inf(1)
			continue
		}
		if c.dn[j] == 0 {
			logRatio[j] = math.Inf(-1)
		} else {
			logRatio[j] = math.Log(c.dn[j]) - math.Log(c.up[j])
		}
		logInvP[j] = -math.Log(c.up[j])
	}

	f[1] = 0
	f[2] = c.f2
	total := c.f2
	logF2 := math.Log(c.f2)
	for i := 2; i <= n-1; i++ {
		// h(i) in log space: logh = logAdd over k of
		// logInvP[k] + Σ_{j=k+1..i} logRatio[j], plus the f(2) tail.
		logh := math.Inf(-1)
		suffix := 0.0 // Σ_{j=k+1..i} logRatio[j], built from k=i down
		impossible := false
		for k := i; k >= 2; k-- {
			if math.IsInf(logInvP[k], 1) {
				impossible = true
				break
			}
			logh = logAdd(logh, logInvP[k]+suffix)
			if math.IsInf(logRatio[k], 1) {
				impossible = true
				break
			}
			suffix += logRatio[k]
		}
		if impossible {
			for j := i + 1; j <= n; j++ {
				f[j] = math.Inf(1)
			}
			return f
		}
		logh = logAdd(logh, logF2+suffix)
		total += math.Exp(logh)
		f[i+1] = total
	}
	return f
}

// ClosedFormG evaluates g(i) for i in 1..N via the Equation 6 closed form
// in log space:
//
//	d(i) = 1/q(i) + (p(i)/q(i))·d(i+1)
//	     = Σ_{k=i..N} (1/q(k)) Π_{j=i..k−1} p(j)/q(j)
//	g(i) = Σ_{k=i+1..N} d(k)
//
// As the paper notes, g is independent of p(1,2) and f(2).
func (c *Chain) ClosedFormG() []float64 {
	n := c.p.N
	g := make([]float64, n+1)
	if c.dn[n] == 0 {
		for i := 1; i < n; i++ {
			g[i] = math.Inf(1)
		}
		return g
	}
	total := 0.0
	for i := n; i >= 2; i-- {
		// d(i) in log space.
		logd := math.Inf(-1)
		prefix := 0.0 // Σ_{j=i..k−1} log(p(j)/q(j))
		impossible := false
		for k := i; k <= n; k++ {
			if c.dn[k] == 0 {
				impossible = true
				break
			}
			logd = logAdd(logd, -math.Log(c.dn[k])+prefix)
			if c.up[k] == 0 {
				break // products beyond k vanish
			}
			prefix += math.Log(c.up[k]) - math.Log(c.dn[k])
		}
		if impossible {
			for j := 1; j < i; j++ {
				g[j] = math.Inf(1)
			}
			return g
		}
		total += math.Exp(logd)
		g[i-1] = total
	}
	return g
}

func TestClosedFormFMatchesRecursion(t *testing.T) {
	for _, tr := range []float64{0.07, 0.1, 0.2, 0.3, 0.32} {
		c := mustNew(t, paperParams(tr))
		f, cf := c.F(), c.ClosedFormF()
		for i := 1; i <= 20; i++ {
			if relDiff(f[i], cf[i]) > 1e-9 {
				t.Fatalf("Tr=%v: ClosedFormF(%d)=%v, F=%v", tr, i, cf[i], f[i])
			}
		}
	}
}

func TestClosedFormGMatchesRecursion(t *testing.T) {
	for _, tr := range []float64{0.1, 0.2, 0.3, 0.44} {
		c := mustNew(t, paperParams(tr))
		g, cg := c.G(), c.ClosedFormG()
		for i := 1; i <= 20; i++ {
			if relDiff(g[i], cg[i]) > 1e-9 {
				t.Fatalf("Tr=%v: ClosedFormG(%d)=%v, G=%v", tr, i, cg[i], g[i])
			}
		}
	}
}

func TestClosedFormInfinities(t *testing.T) {
	// Growth impossible beyond the drift cutoff: both forms agree on +Inf.
	c := mustNew(t, paperParams(3.3*0.11))
	f, cf := c.F(), c.ClosedFormF()
	for i := 1; i <= 20; i++ {
		if math.IsInf(f[i], 1) != math.IsInf(cf[i], 1) {
			t.Fatalf("infinity mismatch at %d: %v vs %v", i, f[i], cf[i])
		}
	}
	// Break-up impossible below Tc/2: g infinite in both forms.
	c2 := mustNew(t, paperParams(0.05))
	g, cg := c2.G(), c2.ClosedFormG()
	for i := 1; i < 20; i++ {
		if !math.IsInf(g[i], 1) || !math.IsInf(cg[i], 1) {
			t.Fatalf("expected +Inf g(%d): %v vs %v", i, g[i], cg[i])
		}
	}
}

// TestClosedFormProperty: agreement across random parameters.
func TestClosedFormProperty(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		p := Params{
			N:  3 + r.Intn(40),
			Tp: r.Uniform(20, 300),
			Tr: r.Uniform(0.01, 1.5),
			Tc: r.Uniform(0.01, 0.4),
			F2: r.Uniform(1, 100),
		}
		c, err := New(p)
		if err != nil {
			return false
		}
		f, cf := c.F(), c.ClosedFormF()
		g, cg := c.G(), c.ClosedFormG()
		for i := 1; i <= p.N; i++ {
			if relDiff(f[i], cf[i]) > 1e-6 || relDiff(g[i], cg[i]) > 1e-6 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLogAdd(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{math.Log(2), math.Log(3), math.Log(5)},
		{math.Inf(-1), math.Log(7), math.Log(7)},
		{math.Log(7), math.Inf(-1), math.Log(7)},
		{700, 700, 700 + math.Log(2)}, // would overflow exp()
	}
	for _, c := range cases {
		if got := logAdd(c.a, c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("logAdd(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestClosedFormSurvivesExtremeProducts: a parameter point where the
// direct product Π q/p overflows float64 but the log-space form stays
// finite and agrees with the (also overflow-prone) recursion when that
// recursion is finite.
func TestClosedFormSurvivesExtremeProducts(t *testing.T) {
	// Large N with strongly down-biased middle states.
	c := mustNew(t, Params{N: 40, Tp: 400, Tr: 0.3, Tc: 0.11, F2: 19})
	cf := c.ClosedFormF()
	f := c.F()
	for i := 1; i <= 40; i++ {
		if relDiff(f[i], cf[i]) > 1e-6 {
			t.Fatalf("disagreement at %d: %v vs %v", i, f[i], cf[i])
		}
	}
}
