package markov

import (
	"math"
	"testing"

	"routesync/internal/rng"
)

// A Monte-Carlo simulator of the chain itself — not of the Periodic
// Messages system, but of the abstract birth–death process the paper
// defines. It closes the tests' three-way validation loop: the exact solver
// (F/G), the paper's printed recursions (PaperF/PaperG), and direct
// stochastic simulation of the chain must all agree; the Periodic
// Messages system simulation is then the only place where a discrepancy
// can carry modeling meaning.

// StepFrom samples the next state from state i using the supplied source.
func (c *Chain) StepFrom(i int, r *rng.Source) int {
	if i < 1 || i > c.p.N {
		panic("markov: state out of range")
	}
	u := r.Float64()
	if u < c.up[i] {
		return i + 1
	}
	if u < c.up[i]+c.dn[i] {
		return i - 1
	}
	return i
}

// MCResult is a Monte-Carlo hitting-time estimate.
type MCResult struct {
	// MeanRounds is the sample mean of the hitting time, in rounds.
	MeanRounds float64
	// StdErr is the standard error of the mean.
	StdErr float64
	// Reached counts trials that hit the target before maxRounds.
	Reached int
	// Trials is the number of trials run.
	Trials int
}

// MCHitTime estimates the expected rounds for the chain to first reach
// state `to` starting from state `from`, by simulating `trials`
// trajectories capped at maxRounds each. Trials that do not reach the
// target are excluded from the mean (and visible via Reached < Trials).
func (c *Chain) MCHitTime(from, to, trials int, maxRounds uint64, seed int64) MCResult {
	if from < 1 || from > c.p.N || to < 1 || to > c.p.N {
		panic("markov: state out of range")
	}
	if trials < 1 {
		panic("markov: need at least one trial")
	}
	r := rng.New(seed)
	var sum, sumSq float64
	reached := 0
	for t := 0; t < trials; t++ {
		state := from
		var rounds uint64
		for state != to && rounds < maxRounds {
			state = c.StepFrom(state, r)
			rounds++
		}
		if state == to {
			reached++
			x := float64(rounds)
			sum += x
			sumSq += x * x
		}
	}
	res := MCResult{Reached: reached, Trials: trials}
	if reached > 0 {
		mean := sum / float64(reached)
		res.MeanRounds = mean
		if reached > 1 {
			variance := (sumSq - sum*sum/float64(reached)) / float64(reached-1)
			if variance > 0 {
				res.StdErr = math.Sqrt(variance / float64(reached))
			}
		}
	} else {
		res.MeanRounds = math.Inf(1)
	}
	return res
}

// Evolve propagates a distribution over states through `rounds`
// transitions of the chain: dist' = dist·P, repeated. dist is indexed
// 1..N (index 0 ignored) and must sum to ~1 over those entries. The
// returned distribution is freshly allocated. This is the transient
// counterpart of Stationary — it answers "where is the system likely to
// be t rounds after a restart?" without simulation.
func (c *Chain) Evolve(dist []float64, rounds uint64) []float64 {
	n := c.p.N
	if len(dist) != n+1 {
		panic("markov: Evolve distribution length must be N+1")
	}
	cur := append([]float64(nil), dist...)
	next := make([]float64, n+1)
	for t := uint64(0); t < rounds; t++ {
		for i := range next {
			next[i] = 0
		}
		for i := 1; i <= n; i++ {
			p := cur[i]
			if p == 0 {
				continue
			}
			next[i] += p * c.PStay(i)
			if i > 1 {
				next[i-1] += p * c.dn[i]
			}
			if i < n {
				next[i+1] += p * c.up[i]
			}
		}
		cur, next = next, cur
	}
	return cur
}

// PointMass returns the distribution concentrated on one state, shaped
// for Evolve.
func (c *Chain) PointMass(state int) []float64 {
	if state < 1 || state > c.p.N {
		panic("markov: state out of range")
	}
	d := make([]float64, c.p.N+1)
	d[state] = 1
	return d
}

// MCOccupancy estimates the long-run fraction of rounds spent in states
// <= loStates by simulating one long trajectory from the given start
// state (with a 10% burn-in discarded). It is the Monte-Carlo
// counterpart of both Stationary and FractionUnsynchronized.
func (c *Chain) MCOccupancy(start, loStates int, rounds uint64, seed int64) float64 {
	if start < 1 || start > c.p.N {
		panic("markov: state out of range")
	}
	r := rng.New(seed)
	burn := rounds / 10
	state := start
	var inLo, counted uint64
	for t := uint64(0); t < rounds; t++ {
		state = c.StepFrom(state, r)
		if t < burn {
			continue
		}
		counted++
		if state <= loStates {
			inLo++
		}
	}
	if counted == 0 {
		return math.NaN()
	}
	return float64(inLo) / float64(counted)
}

// TestMCAgreesWithExactG: Monte-Carlo hitting time N→1 matches the exact
// g(1) within sampling error. Down-hitting at a Tr where break-up is
// fast keeps the run cheap.
func TestMCAgreesWithExactG(t *testing.T) {
	c := mustNew(t, paperParams(0.35))
	exact := c.G1()
	mc := c.MCHitTime(20, 1, 400, 10_000_000, 7)
	if mc.Reached != mc.Trials {
		t.Fatalf("only %d/%d trials reached state 1", mc.Reached, mc.Trials)
	}
	if math.Abs(mc.MeanRounds-exact) > 5*mc.StdErr+0.05*exact {
		t.Fatalf("MC %.1f ± %.1f rounds vs exact %.1f", mc.MeanRounds, mc.StdErr, exact)
	}
}

// TestMCAgreesWithExactHitUp: the up-step 2→3 at moderate Tr, including
// excursions down to state 1 and back. The recursion h(2) = (1+q·h(1))/p
// prices the 1→2 return at h(1) = f(2); that matches the chain's own
// dynamics (a geometric 1/p(1,2) wait in state 1) exactly when f(2) is
// left to its 1/p(1,2) default, so the chain is built without an
// explicit F2.
func TestMCAgreesWithExactHitUp(t *testing.T) {
	c := mustNew(t, Params{N: 20, Tp: 121, Tr: 0.15, Tc: 0.11})
	exact := c.HitUp()[2]
	mc := c.MCHitTime(2, 3, 2000, 1_000_000, 11)
	if mc.Reached != mc.Trials {
		t.Fatalf("only %d/%d trials reached", mc.Reached, mc.Trials)
	}
	if math.Abs(mc.MeanRounds-exact) > 5*mc.StdErr+0.05*exact {
		t.Fatalf("MC %.1f ± %.2f vs exact %.1f", mc.MeanRounds, mc.StdErr, exact)
	}
}

// TestMCOccupancyMatchesStationary: long-run occupancy of low states
// matches the detailed-balance stationary distribution.
func TestMCOccupancyMatchesStationary(t *testing.T) {
	c := mustNew(t, paperParams(0.25))
	pi := c.Stationary()
	var exact float64
	for i := 1; i <= 5; i++ {
		exact += pi[i]
	}
	got := c.MCOccupancy(5, 5, 3_000_000, 13)
	if math.Abs(got-exact) > 0.03 {
		t.Fatalf("MC occupancy %.3f vs stationary %.3f", got, exact)
	}
}

func TestMCUnreachableTarget(t *testing.T) {
	// Tr below Tc/2: break-up impossible; hitting 1 from 20 never happens.
	c := mustNew(t, paperParams(0.05))
	mc := c.MCHitTime(20, 1, 5, 10_000, 3)
	if mc.Reached != 0 || !math.IsInf(mc.MeanRounds, 1) {
		t.Fatalf("unreachable target produced %+v", mc)
	}
}

func TestStepFromDistribution(t *testing.T) {
	c := mustNew(t, paperParams(0.2))
	r := rng.New(5)
	const trials = 200000
	up, down, stay := 0, 0, 0
	const state = 5
	for i := 0; i < trials; i++ {
		switch c.StepFrom(state, r) {
		case state + 1:
			up++
		case state - 1:
			down++
		case state:
			stay++
		default:
			t.Fatal("chain jumped more than one state")
		}
	}
	checkFrac := func(name string, got int, want float64) {
		f := float64(got) / trials
		if math.Abs(f-want) > 0.01 {
			t.Fatalf("%s fraction %.4f, want %.4f", name, f, want)
		}
	}
	checkFrac("up", up, c.PUp(state))
	checkFrac("down", down, c.PDown(state))
	checkFrac("stay", stay, c.PStay(state))
}

func TestMCPanics(t *testing.T) {
	c := mustNew(t, paperParams(0.2))
	for _, f := range []func(){
		func() { c.StepFrom(0, rng.New(1)) },
		func() { c.MCHitTime(0, 1, 10, 100, 1) },
		func() { c.MCHitTime(1, 99, 10, 100, 1) },
		func() { c.MCHitTime(1, 2, 0, 100, 1) },
		func() { c.MCOccupancy(0, 3, 100, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestEvolveConservesMass(t *testing.T) {
	c := mustNew(t, paperParams(0.2))
	d := c.Evolve(c.PointMass(20), 1000)
	var sum float64
	for i := 1; i <= 20; i++ {
		if d[i] < -1e-15 {
			t.Fatalf("negative mass at %d: %v", i, d[i])
		}
		sum += d[i]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("mass = %v", sum)
	}
}

func TestEvolveConvergesToStationary(t *testing.T) {
	c := mustNew(t, paperParams(0.25))
	pi := c.Stationary()
	d := c.Evolve(c.PointMass(10), 2_000_000)
	for i := 1; i <= 20; i++ {
		if math.Abs(d[i]-pi[i]) > 0.01 {
			t.Fatalf("state %d: evolved %v vs stationary %v", i, d[i], pi[i])
		}
	}
}

func TestEvolveMatchesMCOccupancy(t *testing.T) {
	// Transient occupancy of low states from a synchronized start agrees
	// between matrix evolution and Monte Carlo.
	c := mustNew(t, paperParams(0.3))
	const rounds = 5000
	d := c.Evolve(c.PointMass(20), rounds)
	var lowMass float64
	for i := 1; i <= 5; i++ {
		lowMass += d[i]
	}
	// MC: fraction of trajectories in low states at round `rounds`.
	r := rng.New(21)
	inLow := 0
	const trials = 3000
	for tr := 0; tr < trials; tr++ {
		state := 20
		for k := 0; k < rounds; k++ {
			state = c.StepFrom(state, r)
		}
		if state <= 5 {
			inLow++
		}
	}
	got := float64(inLow) / trials
	if math.Abs(got-lowMass) > 0.04 {
		t.Fatalf("MC low-state mass %v vs evolved %v", got, lowMass)
	}
}

func TestEvolvePanics(t *testing.T) {
	c := mustNew(t, paperParams(0.2))
	for _, f := range []func(){
		func() { c.Evolve(make([]float64, 3), 10) },
		func() { c.PointMass(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
