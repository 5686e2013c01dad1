package periodic

import (
	"math"

	"routesync/internal/cluster"
)

// SyncResult reports a synchronization (or break-up) search.
type SyncResult struct {
	// Reached tells whether the condition was met before the horizon.
	Reached bool
	// Time is the simulation time at which the condition was met.
	Time float64
	// Rounds is Time expressed in round windows (Tp+Tc), the unit the
	// paper reports ("synchronization after 498 rounds").
	Rounds float64
	// Events is the number of cluster firings processed.
	Events uint64
}

// RunUntilSynchronized advances the system until a cluster of size N fires
// (full synchronization) or the horizon passes.
func (s *System) RunUntilSynchronized(horizon float64) SyncResult {
	var events uint64
	next := s.NextExpiry()
	for next <= horizon {
		ev := s.Step()
		events++
		if ev.Size() == s.cfg.N {
			return SyncResult{Reached: true, Time: ev.Start, Rounds: ev.Start / s.RoundWindow(), Events: events}
		}
		next = ev.Next
	}
	return SyncResult{Reached: false, Time: s.now, Rounds: s.now / s.RoundWindow(), Events: events}
}

// LargestPending partitions the current pending timer expirations into
// clusters (the system's instantaneous state) and returns the largest
// cluster size. Unlike binning fired events into round windows, this is
// immune to the fact that a large cluster's true period Tp + i·Tc exceeds
// the nominal Tp + Tc round, which would otherwise leave some rounds
// without a cluster firing and falsely read as desynchronization.
func (s *System) LargestPending() int {
	best := 0
	s.pendingClusters(func(size int) { best = max(best, size) })
	return best
}

// RunUntilBroken advances the system until the largest pending cluster is
// <= threshold, or the horizon passes. A threshold of 1 demands complete
// desynchronization (no two routers share a busy window).
func (s *System) RunUntilBroken(threshold int, horizon float64) SyncResult {
	if threshold < 1 {
		threshold = 1
	}
	window := s.RoundWindow()
	var events uint64
	next := s.NextExpiry()
	for next <= horizon {
		next = s.Step().Next
		events++
		if s.LargestPending() <= threshold {
			return SyncResult{Reached: true, Time: s.now, Rounds: s.now / window, Events: events}
		}
	}
	return SyncResult{Reached: false, Time: s.now, Rounds: s.now / window, Events: events}
}

// FirstPassageUp records, for each cluster size i in [1, N], the first time
// a cluster of size >= i fires, simulating until full synchronization or
// the horizon. Sizes never reached hold +Inf. This regenerates one dashed
// line of the paper's Figure 10 (time to reach cluster size i from size 1).
func (s *System) FirstPassageUp(horizon float64) []float64 {
	times := make([]float64, s.cfg.N+1)
	for i := range times {
		times[i] = math.Inf(1)
	}
	times[0] = 0
	maxSoFar := 0
	next := s.NextExpiry()
	for next <= horizon && maxSoFar < s.cfg.N {
		ev := s.Step()
		next = ev.Next
		if ev.Size() > maxSoFar {
			for i := maxSoFar + 1; i <= ev.Size(); i++ {
				times[i] = ev.Start
			}
			maxSoFar = ev.Size()
		}
	}
	return times
}

// FirstPassageDown records, for each cluster size i in [1, N], the first
// time the largest pending cluster drops to <= i, simulating until
// complete break-up (largest == 1) or the horizon. Sizes never reached
// hold +Inf. This regenerates one dashed line of the paper's Figure 11
// (time to reach cluster size i from size N).
func (s *System) FirstPassageDown(horizon float64) []float64 {
	times := make([]float64, s.cfg.N+1)
	for i := range times {
		times[i] = math.Inf(1)
	}
	times[s.cfg.N] = 0
	minSoFar := s.cfg.N
	next := s.NextExpiry()
	for next <= horizon && minSoFar > 1 {
		next = s.Step().Next
		largest := s.LargestPending()
		if largest < minSoFar {
			for i := largest; i < minSoFar; i++ {
				times[i] = s.now
			}
			minSoFar = largest
		}
	}
	return times
}

// LargestPerRound runs the system to the horizon and returns the
// (round-start-time, largest-cluster) series — the paper's cluster graph
// (Figs 6–8).
func (s *System) LargestPerRound(horizon float64) (times []float64, sizes []int) {
	rt := cluster.NewRoundTracker(s.RoundWindow())
	s.OnEvent(func(ev Event) { rt.Observe(ev.Start, ev.Size()) })
	s.RunUntil(horizon)
	return rt.Finish()
}

// MessagePoint is one routing-message transmission for offset traces.
type MessagePoint struct {
	// Time is the transmission time (the member's timer expiration).
	Time float64
	// Offset is Time mod the round window — the paper Fig 4 y-axis.
	Offset float64
}

// OffsetTrace runs the system to the horizon recording one MessagePoint
// per routing message (paper Fig 4). For long horizons this is large:
// ~N·horizon/Tp points.
func (s *System) OffsetTrace(horizon float64) []MessagePoint {
	window := s.RoundWindow()
	var pts []MessagePoint
	s.OnEvent(func(ev Event) {
		for _, t := range ev.Expiries {
			pts = append(pts, MessagePoint{Time: t, Offset: math.Mod(t, window)})
		}
	})
	s.RunUntil(horizon)
	return pts
}

// Mark is a timer event for the paper's Figure 5 ("x" = expiration,
// "o" = reset).
type Mark struct {
	Time  float64
	Reset bool // false: timer expiration; true: timer set
}

// EventMarks runs the system to horizon and returns every timer
// expiration and reset falling inside [from, horizon] — the raw material
// of the paper's Figure 5 enlargement.
func (s *System) EventMarks(from, horizon float64) []Mark {
	var marks []Mark
	s.OnEvent(func(ev Event) {
		if ev.End < from {
			return
		}
		for _, t := range ev.Expiries {
			marks = append(marks, Mark{Time: t}, Mark{Time: ev.End, Reset: true})
		}
	})
	s.RunUntil(horizon)
	return marks
}
