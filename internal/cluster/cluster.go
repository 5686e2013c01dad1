// Package cluster implements cluster identification for the Periodic
// Messages model (paper §4): a cluster is a maximal set of routers whose
// timer expirations fall inside one shared busy window, which grows by Tc
// for every member because each member's routing message costs every other
// router Tc seconds of processing.
//
// The package also provides round bookkeeping — "the largest cluster in the
// current round of N routing messages" is the quantity plotted in the
// paper's cluster graphs (Figs 6–8).
package cluster

import (
	"cmp"
	"slices"
)

// Member pairs a router id with its timer-expiry time.
type Member struct {
	ID     int
	Expiry float64
}

// Cluster is one synchronized group: the members whose expiries share a
// busy window. Members are ordered by expiry time (first = cluster head,
// the node that "breaks away from the head of the cluster" in §5.1 when
// break-up occurs).
//
// The busy window opens at the first member's expiry and closes, with
// every member resetting its timer, len(Members)·Tc later.
type Cluster struct {
	Members []Member
}

// Size returns the number of members.
func (c Cluster) Size() int { return len(c.Members) }

// Grow computes the cluster seeded by the earliest expiry in pending,
// applying the fixed-point rule: sort expiries ascending; with k current
// members and window [t, t+k·Tc), admit the next expiry iff it is
// < t + k·Tc, which extends the window to t+(k+1)·Tc. pending must be
// non-empty; Tc must be > 0 for any multi-member cluster to form (Tc = 0
// yields only exact ties).
//
// Grow does not mutate pending. It is the reference implementation — the
// periodic package's test-only reference stepper, which its engine and
// test-only heap oracle are differential-tested against, is built on it —
// and is equivalent to sorting pending and calling GrowSorted.
func Grow(pending []Member, tc float64) Cluster {
	if len(pending) == 0 {
		panic("cluster: Grow with no pending members")
	}
	sorted := append([]Member(nil), pending...)
	SortMembers(sorted)
	return GrowSorted(sorted, tc)
}

// GrowSorted is Grow's fast path for input already sorted by (Expiry, ID)
// ascending: no copy, no sort — one linear scan. The returned Cluster's
// Members slice aliases sorted; callers that mutate the input afterwards
// must copy first.
func GrowSorted(sorted []Member, tc float64) Cluster {
	if len(sorted) == 0 {
		panic("cluster: GrowSorted with no pending members")
	}
	t := sorted[0].Expiry
	k := 1
	for k < len(sorted) {
		if sorted[k].Expiry < t+float64(k)*tc || sorted[k].Expiry == t {
			k++
			continue
		}
		break
	}
	return Cluster{Members: sorted[:k]}
}

// SortMembers orders members in place by (Expiry, ID) ascending — the
// model's deterministic firing order, which the periodic engines' heap and
// day-bucket orders reproduce exactly.
func SortMembers(ms []Member) {
	slices.SortFunc(ms, func(a, b Member) int {
		if c := cmp.Compare(a.Expiry, b.Expiry); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
}

// RoundTracker accumulates the largest cluster observed per round window.
// The paper plots one point per "round" — roughly one Tp+Tc interval in
// which each of the N routers transmits once.
type RoundTracker struct {
	window  float64
	current int64 // current round index
	largest int
	times   []float64
	sizes   []int
	started bool
}

// NewRoundTracker creates a tracker with the given round window (usually
// Tp + Tc).
func NewRoundTracker(window float64) *RoundTracker {
	if window <= 0 {
		panic("cluster: round window must be positive")
	}
	return &RoundTracker{window: window}
}

// Observe records a cluster of the given size at time t. Observations must
// arrive in nondecreasing time order.
func (rt *RoundTracker) Observe(t float64, size int) {
	idx := int64(t / rt.window)
	if !rt.started {
		rt.started = true
		rt.current = idx
		rt.largest = size
		return
	}
	if idx != rt.current {
		rt.flush()
		rt.current = idx
		rt.largest = size
		return
	}
	if size > rt.largest {
		rt.largest = size
	}
}

func (rt *RoundTracker) flush() {
	rt.times = append(rt.times, float64(rt.current)*rt.window)
	rt.sizes = append(rt.sizes, rt.largest)
}

// Finish flushes the in-progress round and returns the (time, largest
// cluster) series. The tracker may not be reused afterwards.
func (rt *RoundTracker) Finish() (times []float64, sizes []int) {
	if rt.started {
		rt.flush()
		rt.started = false
	}
	return rt.times, rt.sizes
}
