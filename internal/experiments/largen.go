package experiments

import (
	"math"

	"routesync/internal/jitter"
	"routesync/internal/markov"
	"routesync/internal/periodic"
	"routesync/internal/stats"
	"routesync/internal/trace"
)

// ExtLargeN pushes the Periodic Messages model two to four orders of
// magnitude past the paper's populations (§4.3 stops at N=30): an N
// sweep to 100k routers on the structure-of-arrays bucket engine. The
// workload scales the way a growing internetwork would — Tp grows with N
// so the busy fraction N·Tc/Tp stays at the paper's 1.8%, and the random
// component stays at 2.5·Tc, below the 3·Tc nucleation boundary
// (ext_threshold), so the Markov model predicts an eventually
// synchronized equilibrium at every N.
//
// Measured series run from both start states for a fixed number of
// rounds and report the fraction of rounds whose largest firing cluster
// held a majority of the routers, plus the mean normalized largest
// cluster from the unsynchronized start. Set against the equilibrium
// prediction 1 − f(N)/(f(N)+g(1)), the measurement exposes the paper's
// story at scale as metastability: a synchronized start holds its
// majority at every N (the breakup probability (1−Tc/2Tr)^(N−1) vanishes),
// while an unsynchronized start shows no majority within the run even
// though equilibrium favors one — the nucleation time f(N) dwarfs any
// observable horizon.
func ExtLargeN(ns []int, rounds int, seed int64) *Result {
	if len(ns) == 0 {
		ns = []int{1000, 3162, 10000, 31623, 100000}
	}
	if rounds == 0 {
		rounds = 50
	}
	const (
		tc     = 0.11
		trMult = 2.5
		// tpPerN keeps N·Tc/Tp at the paper's operating point
		// (20·0.11/121): message processing occupies 1.8% of a period.
		tpPerN = 6.05
	)
	res := &Result{
		ID:    "ext_largen",
		Title: "large-N sweep: measured majority fraction vs Markov equilibrium, 1k → 100k routers",
		Plot: trace.PlotOptions{
			XLabel: "number of routers N", YLabel: "fraction of rounds with a majority cluster",
			YMin: 0, YMax: 1,
		},
	}
	serSync := stats.Series{Name: "measured, synchronized start"}
	serUnsync := stats.Series{Name: "measured, unsynchronized start"}
	serPred := stats.Series{Name: "Markov equilibrium 1 − f(N)/(f(N)+g(1))"}
	serLargest := stats.Series{Name: "mean largest cluster / N, unsynchronized start"}

	for _, n := range ns {
		tp := tpPerN * float64(n)
		tr := trMult * tc
		measure := func(start periodic.StartState) (majority, meanLargest float64) {
			sys := periodic.New(periodic.Config{
				N:      n,
				Tc:     tc,
				Jitter: jitter.Uniform{Tp: tp, Tr: tr},
				Start:  start,
				Seed:   seed,
			})
			_, sizes := sys.LargestPerRound(float64(rounds) * sys.RoundWindow())
			res.addRounds(sys)
			if len(sizes) == 0 {
				return 0, 0
			}
			hits, sum := 0, 0.0
			for _, sz := range sizes {
				if 2*sz > n {
					hits++
				}
				sum += float64(sz)
			}
			return float64(hits) / float64(len(sizes)),
				sum / (float64(len(sizes)) * float64(n))
		}
		syncFrac, _ := measure(periodic.StartSynchronized)
		unsyncFrac, meanLargest := measure(periodic.StartUnsynchronized)
		serSync.Append(float64(n), syncFrac)
		serUnsync.Append(float64(n), unsyncFrac)
		serLargest.Append(float64(n), meanLargest)

		pred := math.NaN()
		if ch, err := markov.New(markov.Params{N: n, Tp: tp, Tr: tr, Tc: tc}); err == nil {
			pred = 1 - ch.FractionUnsynchronized()
			serPred.Append(float64(n), pred)
		}
		res.Notef("N=%d (Tp=%.0fs): majority fraction sync-start %.3f, unsync-start %.3f, equilibrium prediction %.3f, mean largest/N %.4f",
			n, tp, syncFrac, unsyncFrac, pred, meanLargest)
	}
	res.Series = []stats.Series{serSync, serUnsync, serPred, serLargest}
	res.Notef("Tr = %.1f·Tc sits below the 3·Tc nucleation boundary, so equilibrium is synchronized at every N; the unsynchronized start stays without a majority for all %d observed rounds because the nucleation time f(N) exceeds any simulable horizon — scale makes the synchronized state sticky in both directions", trMult, rounds)
	return res
}
