package experiments

import (
	"fmt"
	"math"

	"routesync/internal/jitter"
	"routesync/internal/markov"
	"routesync/internal/parallel"
	"routesync/internal/periodic"
	"routesync/internal/stats"
	"routesync/internal/trace"
)

// AxisCap is the paper's Figure 12 y-axis ceiling: 10^12 seconds ("over
// 32 thousand years"). Infinite hitting times render clamped here.
const AxisCap = 1e12

// paperF2 is f(2), the expected rounds for the system to first form a
// cluster of size 2 from the unsynchronized state (paper Fig 10: 19).
const paperF2 = 19

// MarkovConfig parameterizes the §5 analysis figures.
type MarkovConfig struct {
	N  int     // paper: 20
	Tc float64 // paper: 0.11
	// Sims is the number of simulation replications overlaid on the
	// analysis (paper: 20); zero disables simulation overlays.
	Sims int
	// SimHorizon bounds each simulation run.
	SimHorizon float64
	// Jobs bounds the workers running replications concurrently; zero
	// or negative means one per CPU. Replication s always uses seed
	// paperSeed+s, so results are identical for every Jobs value.
	Jobs int
	// Obs, when non-nil, observes every simulation replication the
	// driver runs. Instrumentation only: it never affects output.
	Obs periodic.Observer
}

// Defaults fills zero fields with the paper's values.
func (c MarkovConfig) Defaults() MarkovConfig {
	if c.N == 0 {
		c.N = paperN
	}
	if c.Tc == 0 {
		c.Tc = paperTc
	}
	if c.SimHorizon == 0 {
		c.SimHorizon = 2e6
	}
	return c
}

func (c MarkovConfig) chain(tr float64) *markov.Chain {
	ch, err := markov.New(markov.Params{N: c.N, Tp: paperTp, Tr: tr, Tc: c.Tc, F2: paperF2})
	if err != nil {
		panic(err)
	}
	return ch
}

// Fig9 renders the Markov chain itself (the paper's Figure 9): the
// up/down transition probabilities per state for a representative
// Tr = 0.2 s.
func Fig9(c MarkovConfig) *Result {
	c = c.Defaults()
	const tr = 0.2
	ch := c.chain(tr)
	up := stats.Series{Name: "p(i,i+1)"}
	dn := stats.Series{Name: "p(i,i-1)"}
	stay := stats.Series{Name: "p(i,i)"}
	for i := 1; i <= c.N; i++ {
		up.Append(float64(i), ch.PUp(i))
		dn.Append(float64(i), ch.PDown(i))
		stay.Append(float64(i), ch.PStay(i))
	}
	r := &Result{
		ID:     "fig09",
		Title:  "the Markov chain: transition probabilities by state",
		Series: []stats.Series{up, dn, stay},
		Plot:   trace.PlotOptions{XLabel: "state i (largest cluster size)", YLabel: "probability"},
	}
	r.Notef("Tr=%.3g s (%.2g Tc); p(1,2) estimated as %.3g; rows renormalized when Eq1+Eq2 exceed 1",
		tr, tr/c.Tc, ch.ResolvedP12())
	return r
}

// Fig10 regenerates Figure 10: expected time (seconds) to first reach
// cluster size i starting from size 1, for Tr = 0.1 s — the Markov chain
// prediction f(i)·(Tp+Tc) against simulation replications. The paper
// finds the analysis lands within 2–3× of the simulations.
func Fig10(c MarkovConfig) *Result {
	c = c.Defaults()
	const tr = 0.1
	ch := c.chain(tr)
	f := ch.F()
	analysis := stats.Series{Name: "analysis f(i)"}
	for i := 1; i <= c.N; i++ {
		analysis.Append(f[i]*ch.RoundSeconds(), float64(i))
	}
	r := &Result{
		ID:     "fig10",
		Title:  "expected time to reach cluster size i from size 1",
		Series: []stats.Series{analysis.ClampY(AxisCap)},
		Plot:   trace.PlotOptions{XLabel: "time (s)", YLabel: "cluster size i"},
	}
	if c.Sims > 0 {
		avg := simFirstPassageUp(c, tr)
		sim := stats.Series{Name: "simulation mean"}
		for i := 1; i <= c.N; i++ {
			if !math.IsInf(avg[i], 1) {
				sim.Append(avg[i], float64(i))
			}
		}
		r.Series = append(r.Series, sim)
		for _, i := range []int{3, 5, c.N} {
			if i <= c.N && !math.IsInf(avg[i], 1) && avg[i] > 0 {
				ratio := f[i] * ch.RoundSeconds() / avg[i]
				r.Notef("analysis/simulation ratio at i=%d: %.2f (paper reports 2–3× overall)", i, ratio)
			}
		}
		r.Notef("the exact solver of the printed Eq 1–2 chain over-predicts most in the avalanche region, where the paper's single-step assumption is weakest (clusters really merge whole clusters); see EXPERIMENTS.md")
	}
	r.Notef("f(2)=%.0f rounds, p(1,2)=%.3g", ch.ResolvedF2(), ch.ResolvedP12())
	return r
}

// simFirstPassageUp averages FirstPassageUp over c.Sims seeds, running
// the replications on the shared job runner (seed per index, so the
// averages are identical for any worker count).
func simFirstPassageUp(c MarkovConfig, tr float64) []float64 {
	perSim := parallel.Run(c.Sims, c.Jobs, func(s int) []float64 {
		sys := periodic.New(periodic.Config{
			N: c.N, Tc: c.Tc,
			Jitter:   jitter.Uniform{Tp: paperTp, Tr: tr},
			Seed:     paperSeed + int64(s),
			Observer: c.Obs,
		})
		return sys.FirstPassageUp(c.SimHorizon)
	})
	return averagePassages(perSim, c.N, c.Sims)
}

// simFirstPassageDown is the synchronized-start counterpart used by
// Figure 11.
func simFirstPassageDown(c MarkovConfig, tr float64) []float64 {
	perSim := parallel.Run(c.Sims, c.Jobs, func(s int) []float64 {
		sys := periodic.New(periodic.Config{
			N: c.N, Tc: c.Tc,
			Jitter:   jitter.Uniform{Tp: paperTp, Tr: tr},
			Start:    periodic.StartSynchronized,
			Seed:     paperSeed + int64(s),
			Observer: c.Obs,
		})
		return sys.FirstPassageDown(c.SimHorizon)
	})
	return averagePassages(perSim, c.N, c.Sims)
}

// averagePassages reduces per-replication first-passage vectors to the
// mean over sizes every run reached; unreached sizes stay +Inf.
func averagePassages(perSim [][]float64, n, sims int) []float64 {
	sum := make([]float64, n+1)
	count := make([]int, n+1)
	for _, times := range perSim {
		for i := 1; i <= n; i++ {
			if !math.IsInf(times[i], 1) {
				sum[i] += times[i]
				count[i]++
			}
		}
	}
	avg := make([]float64, n+1)
	for i := 1; i <= n; i++ {
		if count[i] == sims { // average only sizes every run reached
			avg[i] = sum[i] / float64(count[i])
		} else {
			avg[i] = math.Inf(1)
		}
	}
	return avg
}

// Fig11 regenerates Figure 11: expected time to reach cluster size i
// starting from size N (synchronized), for Tr = 0.3 s.
func Fig11(c MarkovConfig) *Result {
	c = c.Defaults()
	const tr = 0.3
	ch := c.chain(tr)
	g := ch.G()
	analysis := stats.Series{Name: "analysis g(i)"}
	for i := 1; i <= c.N; i++ {
		analysis.Append(g[i]*ch.RoundSeconds(), float64(i))
	}
	r := &Result{
		ID:     "fig11",
		Title:  "expected time to reach cluster size i from size N",
		Series: []stats.Series{analysis.ClampY(AxisCap)},
		Plot:   trace.PlotOptions{XLabel: "time (s)", YLabel: "cluster size i"},
	}
	if c.Sims > 0 {
		avg := simFirstPassageDown(c, tr)
		sim := stats.Series{Name: "simulation mean"}
		for i := c.N; i >= 1; i-- {
			if !math.IsInf(avg[i], 1) {
				sim.Append(avg[i], float64(i))
			}
		}
		r.Series = append(r.Series, sim)
		if !math.IsInf(avg[1], 1) && avg[1] > 0 {
			ratio := g[1] * ch.RoundSeconds() / avg[1]
			r.Notef("analysis/simulation ratio at i=1: %.2f (paper: 2–3×)", ratio)
		}
	}
	return r
}

// Fig12 regenerates Figure 12: f(N) and g(1), in seconds on a log axis,
// as Tr sweeps from just above Tc/2 to 4.5·Tc. The three regions the
// paper names — low randomization (easy to synchronize), moderate, high
// (easy to unsynchronize) — appear as the crossing curves. When c.Sims is
// positive, simulation check marks are overlaid like the paper's "X"
// (runs from an unsynchronized start) and "+" (from a synchronized
// start) at the Tr values where the expected times fit in the sim
// horizon.
func Fig12(c MarkovConfig) *Result {
	c = c.Defaults()
	const trOverTcLo, trOverTcHi, step = 0.55, 4.5, 0.05
	fn := stats.Series{Name: "f(N): unsync→sync"}
	g1 := stats.Series{Name: "g(1): sync→unsync"}
	for m := trOverTcLo; m <= trOverTcHi+1e-9; m += step {
		ch := c.chain(m * c.Tc)
		fn.Append(m, ch.FN()*ch.RoundSeconds())
		g1.Append(m, ch.G1()*ch.RoundSeconds())
	}
	r := &Result{
		ID:     "fig12",
		Title:  "expected time to synchronize / unsynchronize vs Tr",
		Series: []stats.Series{fn.ClampY(AxisCap), g1.ClampY(AxisCap)},
		Plot: trace.PlotOptions{
			XLabel: "Tr (multiples of Tc)", YLabel: "seconds (log)",
			LogY: true,
		},
	}
	if c.Sims > 0 {
		seeds := c.Sims
		if seeds > 3 {
			seeds = 3 // per-point replication; the paper plots single runs
		}
		// Each mark averages up to `seeds` replications; the replications
		// run on the job runner, seeded by index as everywhere else.
		mark := func(m float64, start periodic.StartState,
			run func(sys *periodic.System) periodic.SyncResult) (float64, bool) {
			times := parallel.Run(seeds, c.Jobs, func(s int) float64 {
				sys := periodic.New(periodic.Config{
					N: c.N, Tc: c.Tc,
					Jitter:   jitter.Uniform{Tp: paperTp, Tr: m * c.Tc},
					Start:    start,
					Seed:     paperSeed + int64(s),
					Observer: c.Obs,
				})
				res := run(sys)
				if !res.Reached {
					return math.Inf(1)
				}
				return res.Time
			})
			var sum float64
			reached := 0
			for _, t := range times {
				if !math.IsInf(t, 1) {
					reached++
					sum += t
				}
			}
			if reached == 0 {
				return 0, false
			}
			return sum / float64(reached), true
		}
		syncMarks := stats.Series{Name: "sim: unsync start (X)"}
		for _, m := range []float64{0.6, 0.8, 1.0} {
			if mean, ok := mark(m, periodic.StartUnsynchronized, func(sys *periodic.System) periodic.SyncResult {
				return sys.RunUntilSynchronized(c.SimHorizon)
			}); ok {
				syncMarks.Append(m, mean)
			}
		}
		breakMarks := stats.Series{Name: "sim: sync start (+)"}
		for _, m := range []float64{2.6, 3.0, 3.5, 4.0} {
			if mean, ok := mark(m, periodic.StartSynchronized, func(sys *periodic.System) periodic.SyncResult {
				return sys.RunUntilBroken(2, c.SimHorizon)
			}); ok {
				breakMarks.Append(m, mean)
			}
		}
		r.Series = append(r.Series, syncMarks, breakMarks)
		r.Notef("simulation marks: %d unsync-start points, %d sync-start points (means of up to %d seeds, horizon %.1es)",
			syncMarks.Len(), breakMarks.Len(), seeds, c.SimHorizon)
	}
	// Locate the crossing (the paper's "moderate randomization" center).
	cross := math.NaN()
	for i := 1; i < fn.Len(); i++ {
		if (fn.Y[i-1]-g1.Y[i-1])*(fn.Y[i]-g1.Y[i]) <= 0 {
			cross = fn.X[i]
			break
		}
	}
	if !math.IsNaN(cross) {
		r.Notef("f(N) and g(1) cross near Tr = %.2f Tc", cross)
	}
	r.Notef("f(N) grows exponentially with Tr in the low/moderate regions (paper §5.3)")
	return r
}

// Fig13 regenerates Figure 13: the Figure 12 curves for N in {10, 20, 30}
// and a second processing cost, verifying the analysis across parameters.
func Fig13(c MarkovConfig, ns []int, tcs []float64) *Result {
	c = c.Defaults()
	if len(ns) == 0 {
		ns = []int{10, 20, 30}
	}
	if len(tcs) == 0 {
		tcs = []float64{0.01, 0.11}
	}
	r := &Result{
		ID:    "fig13",
		Title: "time to synchronize/unsynchronize vs Tr, by N and Tc",
		Plot: trace.PlotOptions{
			XLabel: "Tr (multiples of Tc)", YLabel: "seconds (log)",
			LogY: true,
		},
	}
	for _, tc := range tcs {
		for _, n := range ns {
			cc := c
			cc.N = n
			cc.Tc = tc
			fn := stats.Series{Name: fmt.Sprintf("f(N) N=%d Tc=%.2g", n, tc)}
			g1 := stats.Series{Name: fmt.Sprintf("g(1) N=%d Tc=%.2g", n, tc)}
			for m := 0.55; m <= 8.0+1e-9; m += 0.1 {
				ch := cc.chain(m * tc)
				fn.Append(m, ch.FN()*ch.RoundSeconds())
				g1.Append(m, ch.G1()*ch.RoundSeconds())
			}
			r.Series = append(r.Series, fn.ClampY(AxisCap), g1.ClampY(AxisCap))
		}
	}
	r.Notef("choosing Tr ≥ 10·Tc keeps break-up fast across all parameter sets (paper §5.3)")
	return r
}

// Fig14 regenerates Figure 14: the estimated fraction of time the system
// is unsynchronized, f(N)/(f(N)+g(1)), against Tr — the abrupt
// predominately-synchronized → predominately-unsynchronized transition.
func Fig14(c MarkovConfig) *Result {
	c = c.Defaults()
	const trOverTcLo, trOverTcHi, step = 0.55, 3.0, 0.025
	ser := stats.Series{Name: "fraction unsynchronized"}
	for m := trOverTcLo; m <= trOverTcHi+1e-9; m += step {
		ch := c.chain(m * c.Tc)
		ser.Append(m, ch.FractionUnsynchronized())
	}
	r := &Result{
		ID:     "fig14",
		Title:  "fraction of time unsynchronized vs random component Tr",
		Series: []stats.Series{ser},
		Plot: trace.PlotOptions{
			XLabel: "Tr (multiples of Tc)", YLabel: "fraction unsynchronized",
			YMin: 0, YMax: 1,
		},
	}
	r.Notef("transition width (0.1→0.9): %s", transitionWidth(ser, 0.1, 0.9))
	return r
}

// Fig15 regenerates Figure 15: the fraction of time unsynchronized as a
// function of the number of routers N, with Tr fixed (paper: 0.3 s).
// Adding a single router flips the network from predominately
// unsynchronized to predominately synchronized.
func Fig15(c MarkovConfig) *Result {
	c = c.Defaults()
	const (
		tr       = 0.3
		nLo, nHi = 3, 28
	)
	ser := stats.Series{Name: "fraction unsynchronized"}
	for n := nLo; n <= nHi; n++ {
		cc := c
		cc.N = n
		ch := cc.chain(tr)
		ser.Append(float64(n), ch.FractionUnsynchronized())
	}
	r := &Result{
		ID:     "fig15",
		Title:  "fraction of time unsynchronized vs number of routers",
		Series: []stats.Series{ser},
		Plot: trace.PlotOptions{
			XLabel: "number of routers N", YLabel: "fraction unsynchronized",
			YMin: 0, YMax: 1,
		},
	}
	// Find the steepest single-router drop.
	worstDrop, atN := 0.0, 0
	for i := 1; i < ser.Len(); i++ {
		if d := ser.Y[i-1] - ser.Y[i]; d > worstDrop {
			worstDrop, atN = d, int(ser.X[i])
		}
	}
	r.Notef("largest single-router drop: %.2f when N reaches %d (the paper's 'addition of a single router' transition)", worstDrop, atN)
	return r
}

func transitionWidth(s stats.Series, lo, hi float64) string {
	xHi, xLo := math.NaN(), math.NaN()
	for i := s.Len() - 1; i >= 0; i-- {
		if s.Y[i] >= hi {
			xHi = s.X[i]
		}
		if s.Y[i] <= lo {
			xLo = s.X[i]
			break
		}
	}
	if math.IsNaN(xHi) || math.IsNaN(xLo) {
		return "not bracketed in sweep"
	}
	return fmt.Sprintf("%.2f Tc (from %.2f to %.2f)", xHi-xLo, xLo, xHi)
}
