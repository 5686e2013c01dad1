package markov

import "math"

// CriticalTr locates the paper's transition threshold for a parameter
// set: the random component Tr at which the long-run fraction of time
// unsynchronized crosses 1/2. Below the returned value the system is
// predominately synchronized, above it predominately unsynchronized —
// the quantitative form of the paper's "clearly defined transition
// threshold" (§1).
//
// The fraction is monotone nondecreasing in Tr (more randomness never
// helps synchronization), so bisection on [Tc/2+ε, hi] suffices. The
// search returns:
//
//   - (tr, true) when the crossing lies inside the bracket;
//   - (0, false) if the system is already unsynchronized at the lower
//     edge (no threshold: any randomness suffices);
//   - (+Inf, false) if it is still synchronized at hi (the threshold
//     lies beyond the bracket).
//
// hi <= 0 selects Tp/2, the largest meaningful jitter.
func CriticalTr(n int, tp, tc, hi float64) (float64, bool) {
	if n < 2 || tp <= 0 || tc <= 0 {
		panic("markov: CriticalTr needs n >= 2, tp > 0, tc > 0")
	}
	if hi <= 0 {
		hi = tp / 2
	}
	frac := func(tr float64) float64 {
		ch, err := New(Params{N: n, Tp: tp, Tr: tr, Tc: tc})
		if err != nil {
			return math.NaN()
		}
		return ch.FractionUnsynchronized()
	}
	lo := tc/2 + 1e-9
	if frac(lo) >= 0.5 {
		return 0, false
	}
	if frac(hi) < 0.5 {
		return math.Inf(1), false
	}
	for i := 0; i < 200 && hi-lo > 1e-9*math.Max(1, hi); i++ {
		mid := (lo + hi) / 2
		if frac(mid) < 0.5 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, true
}
