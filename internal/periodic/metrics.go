package periodic

import (
	"math"

	"routesync/internal/cluster"
)

// OrderParameter returns the Kuramoto phase-coherence of the pending
// timer expirations: R = |1/N · Σ exp(2πi·φ_k)| with φ_k the expiry time
// modulo the round window. R is 1 when every timer is in phase and near
// 1/√N for uniformly random phases. It is a continuous companion to the
// discrete largest-cluster statistic — useful for watching the approach
// to the phase transition rather than just its endpoints.
func (s *System) OrderParameter() float64 {
	window := s.RoundWindow()
	var re, im float64
	for _, e := range s.expiry {
		phase := 2 * math.Pi * math.Mod(e, window) / window
		re += math.Cos(phase)
		im += math.Sin(phase)
	}
	n := float64(s.cfg.N)
	return math.Hypot(re, im) / n
}

// pendingClusters sorts the pending expirations into (expiry, id) order
// and partitions them into consecutive clusters, calling fn with each
// cluster's size in firing order. It sorts in the analysis scratch, which
// bucketGather also borrows inside Step, so it must not be called
// from within a Step's gathers (see System.analysis).
func (s *System) pendingClusters(fn func(size int)) {
	ms := s.scratch()
	for i := range ms {
		ms[i] = cluster.Member{ID: i, Expiry: s.expiry[i]}
	}
	cluster.SortMembers(ms)
	for len(ms) > 0 {
		k := cluster.GrowSorted(ms, s.cfg.Tc).Size()
		fn(k)
		ms = ms[k:]
	}
}

// CoherenceTrace runs the system to the horizon sampling the order
// parameter every sampleEvery seconds of simulated time. It returns
// parallel times and R values.
func (s *System) CoherenceTrace(horizon, sampleEvery float64) (times, r []float64) {
	if sampleEvery <= 0 {
		panic("periodic: CoherenceTrace needs a positive sampling interval")
	}
	next := sampleEvery
	pending := s.NextExpiry()
	for pending <= horizon {
		pending = s.Step().Next
		for s.now >= next {
			times = append(times, next)
			r = append(r, s.OrderParameter())
			next += sampleEvery
		}
	}
	return times, r
}
