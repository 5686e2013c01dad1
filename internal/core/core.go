// Package core assembles the paper's primary contribution behind one
// coherent API: simulate a population of weakly-coupled periodic routing
// timers (the Periodic Messages model), analyze it with the Markov chain
// model, compare the two, and plan how much timer jitter a deployment
// needs. The root package routesync re-exports this API publicly.
package core

import (
	"errors"
	"fmt"
	"math"

	"routesync/internal/jitter"
	"routesync/internal/markov"
	"routesync/internal/periodic"
	"routesync/internal/stats"
)

// Params describes a network of periodic routing processes, in the
// paper's notation: N routers sending updates every Tp ± Tr seconds,
// spending Tc seconds of processing per routing message.
type Params struct {
	// N is the number of routers on the shared network.
	N int
	// Tp is the nominal update period in seconds.
	Tp float64
	// Tr is the half-width of the uniform random component added to the
	// timer: each interval is drawn from U[Tp−Tr, Tp+Tr].
	Tr float64
	// Tc is the CPU time, in seconds, to prepare or process one routing
	// message.
	Tc float64
	// Seed drives all simulation randomness; equal Params replay
	// identically.
	Seed int64
}

// PaperParams returns the parameters used throughout the paper's
// simulations: N = 20, Tp = 121 s, Tc = 0.11 s, with the caller's Tr.
func PaperParams(tr float64, seed int64) Params {
	return Params{N: 20, Tp: 121, Tr: tr, Tc: 0.11, Seed: seed}
}

// ErrBadParams reports invalid Params.
var ErrBadParams = errors.New("core: invalid parameters")

// Validate checks the parameters. Tp, Tr and Tc must be finite: NaN
// passes every ordered comparison below.
func (p Params) Validate() error {
	switch {
	case !finite(p.Tp) || !finite(p.Tr) || !finite(p.Tc):
		return fmt.Errorf("%w: non-finite Tp=%g Tr=%g Tc=%g", ErrBadParams, p.Tp, p.Tr, p.Tc)
	case p.N < 1:
		return fmt.Errorf("%w: N=%d", ErrBadParams, p.N)
	case p.Tp <= 0:
		return fmt.Errorf("%w: Tp=%g", ErrBadParams, p.Tp)
	case p.Tr < 0 || p.Tr >= p.Tp:
		return fmt.Errorf("%w: Tr=%g (need 0 <= Tr < Tp)", ErrBadParams, p.Tr)
	case p.Tc < 0:
		return fmt.Errorf("%w: Tc=%g", ErrBadParams, p.Tc)
	case p.Tp <= float64(p.N)*p.Tc:
		return fmt.Errorf("%w: Tp=%g <= N*Tc=%g (saturated)", ErrBadParams, p.Tp, float64(p.N)*p.Tc)
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// resolveHorizon checks a run horizon and applies the 10^6 s default for
// zero. A negative or non-finite horizon is an error.
func resolveHorizon(h float64) (float64, error) {
	if !finite(h) || h < 0 {
		return 0, fmt.Errorf("%w: horizon=%g", ErrBadParams, h)
	}
	if h == 0 {
		return 1e6, nil
	}
	return h, nil
}

func (p Params) config(start periodic.StartState) periodic.Config {
	return periodic.Config{
		N:      p.N,
		Tc:     p.Tc,
		Jitter: jitter.Uniform{Tp: p.Tp, Tr: p.Tr},
		Start:  start,
		Seed:   p.Seed,
	}
}

// SimOptions tunes Simulate.
type SimOptions struct {
	// Horizon bounds the run in simulated seconds; zero means 10^6, and a
	// negative or non-finite horizon is an error.
	Horizon float64
	// StartSynchronized begins with every timer in phase (the state a
	// restart storm or triggered-update wave leaves behind); the default
	// spreads initial phases uniformly.
	StartSynchronized bool
	// BrokenThreshold is the largest-pending-cluster size at or below
	// which a synchronized system counts as broken up; zero means 2.
	BrokenThreshold int
	// RecordTrace adds the largest-cluster-per-round series to the
	// report (costs memory on long horizons).
	RecordTrace bool
}

// SimReport is the outcome of one simulation run.
type SimReport struct {
	Params Params
	// Synchronized tells whether a cluster of size N formed.
	Synchronized bool
	// SyncTime/SyncRounds locate the first full synchronization.
	SyncTime   float64
	SyncRounds float64
	// Broken tells whether (from a synchronized start) the system
	// dispersed to clusters at or below the threshold.
	Broken bool
	// BreakTime/BreakRounds locate the break-up.
	BreakTime   float64
	BreakRounds float64
	// Events is the number of cluster firings processed.
	Events uint64
	// LargestTrace is the (time, largest cluster) series when requested.
	LargestTrace stats.Series
}

// Simulate runs the Periodic Messages model once. From an unsynchronized
// start it reports if/when the system fully synchronized; from a
// synchronized start, if/when it broke up.
func Simulate(p Params, opt SimOptions) (*SimReport, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var err error
	if opt.Horizon, err = resolveHorizon(opt.Horizon); err != nil {
		return nil, err
	}
	if opt.BrokenThreshold == 0 {
		opt.BrokenThreshold = 2
	}
	start := periodic.StartUnsynchronized
	if opt.StartSynchronized {
		start = periodic.StartSynchronized
	}
	rep := &SimReport{Params: p}

	if opt.RecordTrace {
		s := periodic.New(p.config(start))
		times, sizes := s.LargestPerRound(opt.Horizon)
		rep.LargestTrace.Name = "largest cluster"
		for i := range times {
			rep.LargestTrace.Append(times[i], float64(sizes[i]))
		}
	}

	s := periodic.New(p.config(start))
	if opt.StartSynchronized {
		res := s.RunUntilBroken(opt.BrokenThreshold, opt.Horizon)
		rep.Broken = res.Reached
		rep.BreakTime = res.Time
		rep.BreakRounds = res.Rounds
		rep.Events = res.Events
		rep.Synchronized = true
		return rep, nil
	}
	res := s.RunUntilSynchronized(opt.Horizon)
	rep.Synchronized = res.Reached
	rep.SyncTime = res.Time
	rep.SyncRounds = res.Rounds
	rep.Events = res.Events
	return rep, nil
}

// Analysis is the Markov chain model's prediction for a parameter set.
type Analysis struct {
	Params Params
	// ExpectedSyncSeconds is (Tp+Tc)·f(N): expected time from fully
	// unsynchronized to fully synchronized. +Inf when Tr makes cluster
	// growth impossible.
	ExpectedSyncSeconds float64
	// ExpectedUnsyncSeconds is (Tp+Tc)·g(1): expected time from fully
	// synchronized to fully unsynchronized. +Inf when Tr <= Tc/2.
	ExpectedUnsyncSeconds float64
	// FractionUnsynchronized estimates the long-run fraction of time the
	// system spends unsynchronized (paper §5.3, Figs 14–15).
	FractionUnsynchronized float64
	// Stationary is the equilibrium distribution over largest-cluster
	// sizes 1..N (index 0 unused), exact for the birth–death chain.
	Stationary []float64
	// Regime classifies the parameters into the paper's three regions.
	Regime Regime
}

// Regime names the paper's randomization regions (Fig 12).
type Regime string

// Regimes.
const (
	RegimeLow      Regime = "low-randomization"      // synchronizes easily, stays synchronized
	RegimeModerate Regime = "moderate-randomization" // slow in both directions
	RegimeHigh     Regime = "high-randomization"     // desynchronizes easily, stays unsynchronized
)

// Analyze evaluates the Markov chain model for the parameters.
func Analyze(p Params) (*Analysis, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.N < 2 {
		return nil, fmt.Errorf("%w: analysis needs N >= 2", ErrBadParams)
	}
	ch, err := markov.New(markov.Params{N: p.N, Tp: p.Tp, Tr: p.Tr, Tc: p.Tc})
	if err != nil {
		return nil, err
	}
	a := &Analysis{
		Params:                 p,
		ExpectedSyncSeconds:    ch.FN() * ch.RoundSeconds(),
		ExpectedUnsyncSeconds:  ch.G1() * ch.RoundSeconds(),
		FractionUnsynchronized: ch.FractionUnsynchronized(),
		Stationary:             ch.Stationary(),
	}
	switch {
	case a.FractionUnsynchronized < 0.1:
		a.Regime = RegimeLow
	case a.FractionUnsynchronized > 0.9:
		a.Regime = RegimeHigh
	default:
		a.Regime = RegimeModerate
	}
	return a, nil
}

// Comparison pits the analysis against simulation replications, the
// validation the paper performs in Figures 10–11.
type Comparison struct {
	Params Params
	// AnalysisSyncSeconds is the chain's expected synchronization time.
	AnalysisSyncSeconds float64
	// SimMeanSyncSeconds averages the replications that synchronized.
	SimMeanSyncSeconds float64
	// SimSynchronized counts replications that synchronized in time.
	SimSynchronized int
	// Replications is the number of simulation runs.
	Replications int
	// Ratio is analysis/simulation (NaN when unavailable). The paper
	// reports 2–3×; see EXPERIMENTS.md for our measured ratios.
	Ratio float64
}

// Compare runs `replications` simulations and sets the analysis
// prediction beside their mean.
func Compare(p Params, replications int, horizon float64) (*Comparison, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if replications <= 0 {
		replications = 5
	}
	if horizon == 0 {
		horizon = 2e6
	}
	a, err := Analyze(p)
	if err != nil {
		return nil, err
	}
	c := &Comparison{
		Params:              p,
		AnalysisSyncSeconds: a.ExpectedSyncSeconds,
		Replications:        replications,
		Ratio:               math.NaN(),
	}
	var sum float64
	for i := 0; i < replications; i++ {
		pp := p
		pp.Seed = p.Seed + int64(i)
		rep, err := Simulate(pp, SimOptions{Horizon: horizon})
		if err != nil {
			return nil, err
		}
		if rep.Synchronized {
			c.SimSynchronized++
			sum += rep.SyncTime
		}
	}
	if c.SimSynchronized > 0 {
		c.SimMeanSyncSeconds = sum / float64(c.SimSynchronized)
		if c.SimMeanSyncSeconds > 0 && !math.IsInf(c.AnalysisSyncSeconds, 1) {
			c.Ratio = c.AnalysisSyncSeconds / c.SimMeanSyncSeconds
		}
	}
	return c, nil
}

// JitterPlan is the actionable output for protocol designers: how much
// randomness a deployment needs, with the model evidence attached.
type JitterPlan struct {
	// MinTr is 10·Tc — the paper's §5.3 "quick break-up" floor.
	MinTr float64
	// SafeTr is Tp/2 — the paper's §6 recommendation (timer drawn from
	// U[0.5·Tp, 1.5·Tp]) that eliminates synchronization outright.
	SafeTr float64
	// FractionAtMin / FractionAtSafe are the chain's predicted fractions
	// of time unsynchronized at those settings.
	FractionAtMin  float64
	FractionAtSafe float64
	// FractionAtZero is the prediction with no jitter beyond OS noise
	// (evaluated at a nominal Tr = Tc/2 + epsilon).
	FractionAtZero float64
}

// CriticalJitter returns the phase-transition threshold for a deployment:
// the random component Tr at which the network flips from predominately
// synchronized to predominately unsynchronized (the paper's §1 "clearly
// defined transition threshold"). A false second return means the system
// is on one side of the transition for every Tr in (Tc/2, Tp/2] — zero
// when any randomness suffices, +Inf when none does within the bracket.
func CriticalJitter(n int, tp, tc float64) (float64, bool, error) {
	if n < 2 || tp <= 0 || tc <= 0 {
		return 0, false, fmt.Errorf("%w: CriticalJitter(n=%d, tp=%g, tc=%g)", ErrBadParams, n, tp, tc)
	}
	tr, ok := markov.CriticalTr(n, tp, tc, 0)
	return tr, ok, nil
}

// EnsembleSummary reports a replicated simulation study.
type EnsembleSummary = periodic.EnsembleResult

// SimulateEnsemble runs replications independent simulations in parallel
// (seeds p.Seed, p.Seed+1, ...) and summarizes the time to full
// synchronization (unsynchronized start) or to break-up (synchronized
// start, largest cluster <= 2).
func SimulateEnsemble(p Params, replications int, horizon float64, startSynchronized bool) (*EnsembleSummary, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if replications < 1 {
		return nil, fmt.Errorf("%w: replications=%d", ErrBadParams, replications)
	}
	horizon, err := resolveHorizon(horizon)
	if err != nil {
		return nil, err
	}
	cfg := p.config(periodic.StartUnsynchronized)
	var res periodic.EnsembleResult
	if startSynchronized {
		res = periodic.EnsembleBreak(cfg, 2, replications, horizon)
	} else {
		res = periodic.EnsembleSync(cfg, replications, horizon)
	}
	return &res, nil
}

// PlanJitter evaluates the paper's guidance for a deployment of n
// routers with period tp and per-message cost tc.
func PlanJitter(n int, tp, tc float64) (*JitterPlan, error) {
	if n < 2 || tp <= 0 || tc <= 0 {
		return nil, fmt.Errorf("%w: PlanJitter(n=%d, tp=%g, tc=%g)", ErrBadParams, n, tp, tc)
	}
	rec := jitter.Recommend(tp, tc)
	plan := &JitterPlan{MinTr: rec.MinTr, SafeTr: rec.SafeTr}
	frac := func(tr float64) float64 {
		if tr >= tp {
			tr = 0.99 * tp
		}
		ch, err := markov.New(markov.Params{N: n, Tp: tp, Tr: tr, Tc: tc})
		if err != nil {
			return math.NaN()
		}
		return ch.FractionUnsynchronized()
	}
	plan.FractionAtMin = frac(rec.MinTr)
	plan.FractionAtSafe = frac(rec.SafeTr)
	plan.FractionAtZero = frac(tc/2 + 1e-6)
	return plan, nil
}
