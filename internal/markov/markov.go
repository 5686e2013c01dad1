// Package markov implements the paper's §5 Markov chain model of the
// Periodic Messages system. The chain has states 1..N, where state i means
// the largest cluster among the N routing messages has size i. Per round
// the largest cluster grows by one, shrinks by one, or stays.
//
// Transition probabilities follow the paper:
//
//	Eq 1:  p(i,i−1) = (1 − Tc/(2·Tr))^(i−1)            for i > 1
//	Eq 2:  p(i,i+1) = 1 − exp(−((N−i+1)/Tp)·D(i))      for 2 ≤ i ≤ N−1
//	       D(i) = (i−1)·Tc − Tr·(i−1)/(i+1)            (per-round drift)
//
// p(1,2) is a free parameter in the paper (it depends on how often two
// lone routers collide); EstimateP12 provides a documented estimate and
// callers may override it.
//
// Hitting times are solved exactly with the standard birth–death
// first-step recursions (see F and G); the paper's printed Eq 3–6
// recursion, including its printed conditional move times t(j,j±1), is
// also implemented (PaperF; the tests add PaperG) for fidelity
// comparison. With the conditional wait time 1/(p↓+p↑) the printed
// recursion is algebraically identical to the exact solver; with the
// paper's printed t = P(move)·E[wait] values it underestimates, which
// tests quantify.
package markov

import (
	"errors"
	"fmt"
	"math"
)

// Params parameterizes the chain. All times are seconds.
type Params struct {
	// N is the number of routers (chain states 1..N).
	N int
	// Tp is the mean timer period (paper: 121 s).
	Tp float64
	// Tr is the half-width of the timer's random component.
	Tr float64
	// Tc is the per-message processing cost (paper: 0.11 s).
	Tc float64
	// P12 is p(1,2), the probability that two lone routers merge in one
	// round. Zero means "estimate it" (see EstimateP12).
	P12 float64
	// F2 is f(2), the expected rounds for the system to first form a
	// cluster of size 2 from the fully unsynchronized state. The paper
	// uses 19 rounds for its Fig 10 parameters. Zero means 1/p(1,2).
	F2 float64
}

// Chain is a constructed Markov chain model.
type Chain struct {
	p   Params
	up  []float64 // up[i] = p(i,i+1), indices 1..N
	dn  []float64 // dn[i] = p(i,i−1)
	f2  float64   // resolved f(2) in rounds
	p12 float64   // resolved p(1,2)
}

// ErrBadParams reports invalid chain parameters.
var ErrBadParams = errors.New("markov: invalid parameters")

// New validates params and builds the chain.
func New(p Params) (*Chain, error) {
	switch {
	case p.N < 2:
		return nil, fmt.Errorf("%w: N=%d (need at least 2)", ErrBadParams, p.N)
	case p.Tp <= 0:
		return nil, fmt.Errorf("%w: Tp=%g", ErrBadParams, p.Tp)
	case p.Tc < 0:
		return nil, fmt.Errorf("%w: Tc=%g", ErrBadParams, p.Tc)
	case p.Tr < 0:
		return nil, fmt.Errorf("%w: Tr=%g", ErrBadParams, p.Tr)
	case p.P12 < 0 || p.P12 > 1:
		return nil, fmt.Errorf("%w: P12=%g", ErrBadParams, p.P12)
	case p.F2 < 0:
		return nil, fmt.Errorf("%w: F2=%g", ErrBadParams, p.F2)
	}
	c := &Chain{p: p}
	c.p12 = p.P12
	if c.p12 == 0 {
		c.p12 = EstimateP12(p.N, p.Tp, p.Tr, p.Tc)
	}
	c.f2 = p.F2
	if c.f2 == 0 {
		if c.p12 > 0 {
			c.f2 = 1 / c.p12
		} else {
			c.f2 = math.Inf(1)
		}
	}
	c.up = make([]float64, p.N+1)
	c.dn = make([]float64, p.N+1)
	for i := 1; i <= p.N; i++ {
		c.up[i] = c.pUp(i)
		c.dn[i] = c.pDown(i)
		// Eq 1 and Eq 2 are independent estimates; for extreme parameters
		// (e.g. Tr ≫ Tc, where Eq 1 approaches 1) they can sum above 1.
		// Normalize the row so the chain stays stochastic — equivalent to
		// saying the state always moves in such rounds.
		if sum := c.up[i] + c.dn[i]; sum > 1 {
			c.up[i] /= sum
			c.dn[i] /= sum
		}
	}
	return c, nil
}

// ResolvedP12 returns the p(1,2) actually used (given or estimated).
func (c *Chain) ResolvedP12() float64 { return c.p12 }

// ResolvedF2 returns the f(2) actually used, in rounds.
func (c *Chain) ResolvedF2() float64 { return c.f2 }

// Drift returns the paper's per-round advance of a cluster of size i
// relative to a lone router: (i−1)·Tc − Tr·(i−1)/(i+1) seconds (§5.1).
// Positive drift is what lets big clusters sweep up stragglers.
func (c *Chain) Drift(i int) float64 {
	return float64(i-1)*c.p.Tc - c.p.Tr*float64(i-1)/float64(i+1)
}

// pUp computes p(i,i+1) per Eq 2, clamped to 0 when the drift is
// non-positive (a cluster with negative drift never catches its follower).
func (c *Chain) pUp(i int) float64 {
	if i < 1 || i >= c.p.N {
		return 0
	}
	if i == 1 {
		return c.p12
	}
	d := c.Drift(i)
	if d <= 0 {
		return 0
	}
	rate := float64(c.p.N-i+1) / c.p.Tp
	return 1 - math.Exp(-rate*d)
}

// pDown computes p(i,i−1) per Eq 1. For Tr ≤ Tc/2 the cluster spread
// 2·Tr never exceeds Tc, no member can escape, and the probability is 0
// (the paper's §5 precondition Tr > Tc/2).
func (c *Chain) pDown(i int) float64 {
	if i <= 1 {
		return 0
	}
	if c.p.Tr <= c.p.Tc/2 {
		return 0
	}
	base := 1 - c.p.Tc/(2*c.p.Tr)
	return math.Pow(base, float64(i-1))
}

// PUp returns p(i,i+1).
func (c *Chain) PUp(i int) float64 {
	if i < 1 || i > c.p.N {
		panic("markov: state out of range")
	}
	return c.up[i]
}

// PDown returns p(i,i−1).
func (c *Chain) PDown(i int) float64 {
	if i < 1 || i > c.p.N {
		panic("markov: state out of range")
	}
	return c.dn[i]
}

// PStay returns p(i,i) = 1 − p(i,i−1) − p(i,i+1).
func (c *Chain) PStay(i int) float64 {
	return 1 - c.PUp(i) - c.PDown(i)
}

// RoundSeconds converts rounds to seconds: one round is Tp + Tc (the
// paper's figures plot (Tp+Tc)·f(i)).
func (c *Chain) RoundSeconds() float64 { return c.p.Tp + c.p.Tc }

// HitUp returns h(i), the expected rounds to go from state i to state i+1,
// for i in 1..N−1, from the exact first-step recursion
//
//	h(i) = (1 + p(i,i−1)·h(i−1)) / p(i,i+1),   h(1) = f(2)
//
// Entries are +Inf where growth is impossible (p(i,i+1)=0).
func (c *Chain) HitUp() []float64 {
	h := make([]float64, c.p.N) // h[i] valid for 1..N−1
	if c.p.N < 2 {
		return h
	}
	h[1] = c.f2
	for i := 2; i <= c.p.N-1; i++ {
		if c.up[i] == 0 {
			h[i] = math.Inf(1)
			continue
		}
		prev := h[i-1]
		if math.IsInf(prev, 1) {
			// Once an earlier transition is impossible the chain can
			// still be above it (e.g. started there), so h(i) itself may
			// be finite; the impossible term only matters via the down
			// move. Treat q·Inf as Inf when q > 0.
			if c.dn[i] > 0 {
				h[i] = math.Inf(1)
				continue
			}
			prev = 0
		}
		h[i] = (1 + c.dn[i]*prev) / c.up[i]
	}
	return h
}

// F returns f(i) for i in 1..N: the expected rounds to first reach state i
// starting from state 1, with f(1) = 0 and f(2) as configured.
func (c *Chain) F() []float64 {
	h := c.HitUp()
	f := make([]float64, c.p.N+1)
	for i := 2; i <= c.p.N; i++ {
		f[i] = f[i-1] + h[i-1]
	}
	return f
}

// FN returns f(N) in rounds: expected rounds from fully unsynchronized to
// fully synchronized.
func (c *Chain) FN() float64 { return c.F()[c.p.N] }

// HitDown returns d(i), the expected rounds to go from state i to state
// i−1, for i in 2..N, from the exact recursion
//
//	d(i) = (1 + p(i,i+1)·d(i+1)) / p(i,i−1),   d(N) = 1/p(N,N−1)
//
// Entries are +Inf where break-up is impossible (Tr ≤ Tc/2).
func (c *Chain) HitDown() []float64 {
	d := make([]float64, c.p.N+1) // d[i] valid for 2..N
	if c.dn[c.p.N] == 0 {
		for i := 2; i <= c.p.N; i++ {
			d[i] = math.Inf(1)
		}
		return d
	}
	d[c.p.N] = 1 / c.dn[c.p.N]
	for i := c.p.N - 1; i >= 2; i-- {
		if c.dn[i] == 0 {
			d[i] = math.Inf(1)
			continue
		}
		d[i] = (1 + c.up[i]*d[i+1]) / c.dn[i]
	}
	return d
}

// G returns g(i) for i in 1..N: the expected rounds to first reach state i
// starting from state N, with g(N) = 0.
func (c *Chain) G() []float64 {
	d := c.HitDown()
	g := make([]float64, c.p.N+1)
	for i := c.p.N - 1; i >= 1; i-- {
		g[i] = g[i+1] + d[i+1]
	}
	return g
}

// G1 returns g(1) in rounds: expected rounds from fully synchronized to
// fully unsynchronized.
func (c *Chain) G1() float64 { return c.G()[1] }

// FractionUnsynchronized estimates the long-run fraction of time the
// system spends unsynchronized as f(N)/(f(N)+g(1)) (paper §5.3, Figs
// 14–15). When f(N) is +Inf (growth impossible) the fraction is 1; when
// g(1) is +Inf (break-up impossible) it is 0; when both are infinite the
// system never leaves its initial condition and the estimate is NaN.
func (c *Chain) FractionUnsynchronized() float64 {
	fn, g1 := c.FN(), c.G1()
	switch {
	case math.IsInf(fn, 1) && math.IsInf(g1, 1):
		return math.NaN()
	case math.IsInf(fn, 1):
		return 1
	case math.IsInf(g1, 1):
		return 0
	}
	return fn / (fn + g1)
}

// Stationary returns the equilibrium distribution π(1..N) of the
// birth–death chain via detailed balance: π(i+1)/π(i) = p(i,i+1)/p(i+1,i).
// The paper could "only ... estimate the equilibrium distribution ... by
// further approximating the transition probabilities"; for a birth–death
// chain detailed balance is exact, so this is an extension the model
// structure gives us for free. Log-space accumulation avoids overflow.
// States unreachable from state 1 (zero up-probability en route) get π=0;
// if break-up is impossible the mass collapses onto the top reachable
// block. Returns nil if any ratio is 0/0 (degenerate chain).
func (c *Chain) Stationary() []float64 {
	n := c.p.N
	logpi := make([]float64, n+1)
	logpi[1] = 0
	for i := 1; i < n; i++ {
		up, dn := c.up[i], c.dn[i+1]
		switch {
		case up == 0:
			// states above i unreachable from below
			for j := i + 1; j <= n; j++ {
				logpi[j] = math.Inf(-1)
			}
			i = n // break outer
		case dn == 0:
			// once up, never down: all mass drains upward; stationary
			// distribution concentrates at the absorbing top block
			for j := 1; j <= i; j++ {
				logpi[j] = math.Inf(-1)
			}
			logpi[i+1] = 0
		default:
			logpi[i+1] = logpi[i] + math.Log(up) - math.Log(dn)
		}
	}
	// normalize with log-sum-exp
	max := math.Inf(-1)
	for i := 1; i <= n; i++ {
		if logpi[i] > max {
			max = logpi[i]
		}
	}
	if math.IsInf(max, -1) {
		return nil
	}
	var z float64
	for i := 1; i <= n; i++ {
		z += math.Exp(logpi[i] - max)
	}
	pi := make([]float64, n+1)
	for i := 1; i <= n; i++ {
		pi[i] = math.Exp(logpi[i]-max) / z
	}
	return pi
}
