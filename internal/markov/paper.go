package markov

import "math"

// waitConditional returns the expected rounds the chain spends in state j
// before its next move, 1/(p(j,j−1)+p(j,j+1)). For a Markov chain the wait
// is geometric and independent of the move's direction, so this is the
// conditional move time t(j,j±1) the Eq 3/5 derivations need.
func (c *Chain) waitConditional(j int) float64 {
	tot := c.dn[j] + c.up[j]
	if tot == 0 {
		return math.Inf(1)
	}
	return 1 / tot
}

// tPrinted returns the paper's printed formula for t(j,j±1):
//
//	t(j,j+1) = p(j,j+1) / (p(j,j−1)+p(j,j+1))²
//	t(j,j−1) = p(j,j−1) / (p(j,j−1)+p(j,j+1))²
//
// These equal P(move in that direction) × E[wait], i.e. the *joint*
// expectation rather than the conditional one; substituting them into the
// Eq 3/5 recursions yields systematically smaller times. Both variants are
// exposed so the ablation (DESIGN.md A2) can quantify the difference.
func (c *Chain) tPrinted(j int, up bool) float64 {
	tot := c.dn[j] + c.up[j]
	if tot == 0 {
		return math.Inf(1)
	}
	num := c.dn[j]
	if up {
		num = c.up[j]
	}
	return num / (tot * tot)
}

// TVariant selects which conditional-move-time formula the printed
// recursions use.
type TVariant int

const (
	// TConditional uses t(j,·) = 1/(p(j,j−1)+p(j,j+1)), the value that
	// makes the paper's Eq 3/5 derivations exact; PaperF/PaperG then agree
	// with F/G to floating-point error.
	TConditional TVariant = iota
	// TPrinted uses the formulas as printed in the paper (§5.2).
	TPrinted
)

func (c *Chain) tval(j int, up bool, v TVariant) float64 {
	if v == TPrinted {
		return c.tPrinted(j, up)
	}
	return c.waitConditional(j)
}

// PaperF evaluates f(i) for i in 1..N via the paper's Eq 3 recursion
//
//	f(i) − ((p↓+p↑)/p↑)·f(i−1) + (p↓/p↑)·f(i−2) = c(i)
//	c(i) = t(i−1,i) + (p↓/p↑)·t(i−1,i−2)
//
// with p↓ = p(i−1,i−2), p↑ = p(i−1,i), f(1) = 0 and f(2) as configured,
// solved forward instead of through the paper's Eq 4 closed form (the two
// are algebraically equivalent; forward solution avoids the nested
// products' overflow). The v parameter picks the t(j,·) variant.
func (c *Chain) PaperF(v TVariant) []float64 {
	n := c.p.N
	f := make([]float64, n+1)
	if n < 2 {
		return f
	}
	f[1] = 0
	f[2] = c.f2
	for i := 3; i <= n; i++ {
		pDn := c.dn[i-1] // p(i−1,i−2)
		pUp := c.up[i-1] // p(i−1,i)
		if pUp == 0 {
			f[i] = math.Inf(1)
			continue
		}
		ci := c.tval(i-1, true, v) + (pDn/pUp)*c.tval(i-1, false, v)
		f[i] = ci + ((pDn+pUp)/pUp)*f[i-1] - (pDn/pUp)*f[i-2]
		if math.IsNaN(f[i]) { // Inf−Inf from an upstream impossible step
			f[i] = math.Inf(1)
		}
	}
	return f
}

// EstimateP12 estimates p(1,2): the per-round probability that some pair
// of lone routers merges. The paper leaves p(1,2) as a variable ("p(1,2)
// depends largely on Tr, the random change in the timer-offsets from one
// round to the next") and uses an unpublished approximate analysis for
// f(2); this estimator is our documented substitute (DESIGN.md §3.2).
//
// Model: adjacent lone routers are separated by an Exp(Tp/N) gap G (the
// paper's §5 spacing assumption with i = 1). In one round their relative
// displacement Δ is the difference of two independent U[−Tr, Tr] draws — a
// symmetric triangular variate on [−2Tr, 2Tr]. A pair merges when the new
// gap G + Δ falls below Tc. The per-pair probability is
// E[ P(Δ < Tc − G) ], integrated numerically over G, and with N routers
// there are N adjacent pairs, any of which may merge:
//
//	p(1,2) ≈ 1 − (1 − pPair)^N
//
// The estimate is clamped to [0, 1]; Tr = 0 yields pPair = P(G < Tc).
func EstimateP12(n int, tp, tr, tc float64) float64 {
	if n < 2 || tp <= 0 {
		return 0
	}
	mean := tp / float64(n)
	cdfTri := func(x float64) float64 { // CDF of triangular on [−2Tr, 2Tr]
		if tr == 0 {
			if x < 0 {
				return 0
			}
			return 1
		}
		w := 2 * tr
		switch {
		case x <= -w:
			return 0
		case x >= w:
			return 1
		case x <= 0:
			return (x + w) * (x + w) / (2 * w * w)
		default:
			return 1 - (w-x)*(w-x)/(2*w*w)
		}
	}
	// pPair = ∫_0^∞ (1/mean)·e^{−g/mean} · CDF_Δ(Tc − g) dg, trapezoid on
	// [0, hi] where the integrand is non-negligible.
	hi := tc + 2*tr + 10*mean
	const steps = 4000
	dg := hi / steps
	var acc float64
	for k := 0; k <= steps; k++ {
		g := float64(k) * dg
		w := 1.0
		if k == 0 || k == steps {
			w = 0.5
		}
		acc += w * math.Exp(-g/mean) / mean * cdfTri(tc-g)
	}
	pPair := acc * dg
	if pPair < 0 {
		pPair = 0
	}
	if pPair > 1 {
		pPair = 1
	}
	p := 1 - math.Pow(1-pPair, float64(n))
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return p
}
