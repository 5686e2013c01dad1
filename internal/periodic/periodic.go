// Package periodic implements the paper's Periodic Messages model (§3) and
// its simulation semantics (§4): N routers, each with a routing timer drawn
// from a jitter policy (U[Tp−Tr, Tp+Tr] in the paper), a per-message
// processing cost Tc, and the weak coupling that arises because a router
// resets its timer only after it has finished sending its own routing
// message and processing any incoming ones.
//
// The simulation follows the paper's simplifying assumptions: routing
// message transmission time is zero and every router learns of a timer
// expiration immediately, so when the earliest pending timer fires at time
// t, the set of routers whose timers fire inside the growing busy window
// [t, t+k·Tc) forms a cluster of size k; all members finish processing at
// t+k·Tc and reset their timers simultaneously. Those shared resets are
// the synchronization mechanism the paper studies.
package periodic

import (
	"fmt"
	"math"

	"routesync/internal/cluster"
	"routesync/internal/jitter"
	"routesync/internal/rng"
)

// TimerReset selects when a router's timer is re-armed.
type TimerReset int

const (
	// ResetAfterProcessing is the paper's model (§3 step 3): the timer is
	// set only after the router finishes its outgoing message and all
	// incoming ones, so processing delays shift the next expiration. This
	// is the coupling that lets clusters form and drift.
	ResetAfterProcessing TimerReset = iota
	// ResetOnExpiry is the alternative suggested in RFC 1058 and §6: the
	// next expiration is scheduled from the previous expiration,
	// unaffected by processing time. Routers are then uncoupled — they
	// neither synchronize nor, once synchronized, desynchronize.
	ResetOnExpiry
)

// String returns the reset mode name.
func (t TimerReset) String() string {
	switch t {
	case ResetAfterProcessing:
		return "reset-after-processing"
	case ResetOnExpiry:
		return "reset-on-expiry"
	default:
		return fmt.Sprintf("TimerReset(%d)", int(t))
	}
}

// StartState selects the initial phase of the routers.
type StartState int

const (
	// StartUnsynchronized draws each router's first expiration uniformly
	// from [0, Tp] (paper §4: "the transit time for the first routing
	// message is chosen from the uniform distribution on [0, Tp]").
	StartUnsynchronized StartState = iota
	// StartSynchronized fires every router's first timer at time 0 — the
	// state a wave of triggered updates or a simultaneous restart leaves
	// the network in (paper Figs 8, 11).
	StartSynchronized
)

// String returns the start-state name.
func (s StartState) String() string {
	switch s {
	case StartUnsynchronized:
		return "unsynchronized"
	case StartSynchronized:
		return "synchronized"
	default:
		return fmt.Sprintf("StartState(%d)", int(s))
	}
}

// Config parameterizes a System.
type Config struct {
	// N is the number of routers (paper default 20).
	N int
	// Tc is the seconds of computation needed to process one incoming or
	// outgoing routing message (paper default 0.11 s).
	Tc float64
	// Jitter yields successive timer intervals (paper default
	// U[Tp−Tr, Tp+Tr] with Tp = 121 s, Tr = 0.1 s).
	Jitter jitter.Policy
	// Reset selects the timer re-arm rule; the zero value is the paper's.
	Reset TimerReset
	// Start selects the initial phase; the zero value is unsynchronized.
	Start StartState
	// Seed drives all randomness. Two runs with equal Config replay
	// identically.
	Seed int64
	// Observer, when non-nil, is notified after every cluster firing.
	// Unlike OnEvent callbacks it receives only scalars, so counting
	// rounds costs no allocations. Nil (the default) costs one branch.
	Observer Observer
}

// Observer receives model lifecycle notifications. Methods are called
// synchronously from Step; implementations must not call back into the
// System. A nil observer is free apart from a single branch per event.
type Observer interface {
	// RoundCompleted fires after each cluster event: now is the busy-window
	// end the clock advanced to, size the number of routers in the cluster.
	RoundCompleted(now float64, size int)
}

// Event describes one cluster firing: the routers whose timers expired in
// one shared busy window.
//
// Members and Expiries are backed by scratch owned by the System and
// reused on the next Step — read or copy them before stepping again.
// Every run helper and observer in this repository consumes them
// immediately; the reuse is what keeps Step at zero steady-state
// allocations.
type Event struct {
	// Start is the first timer expiration (busy window opens).
	Start float64
	// End is Start + Size·Tc, when all members reset their timers.
	End float64
	// Members holds the router ids in expiry order; Members[0] is the
	// cluster head.
	Members []int
	// Expiries holds each member's timer-expiration time, parallel to
	// Members.
	Expiries []float64
	// Next is the earliest pending timer expiration after this event's
	// resets — what NextExpiry would return. Run loops use it to decide
	// whether to keep stepping without re-querying the system.
	Next float64
}

// Size returns the cluster size.
func (e Event) Size() int { return len(e.Members) }

// System is a running instance of the Periodic Messages model. It is not
// safe for concurrent use.
type System struct {
	cfg    Config
	r      *rng.Source
	expiry []float64 // next timer expiration per router
	now    float64
	// onEvent observers are invoked, in registration order, after every
	// cluster firing.
	onEvent []func(Event)
	// analysis is N-sized scratch shared by two users that never overlap:
	// pendingClusters (LargestPending; ClusterSizes in tests), which runs
	// between Steps or from observers after a Step's gathers are done, and
	// radixCand, which runs only inside bucketGather.
	// scratch allocates it on first use, so a run that needs neither —
	// an unsynchronized one that never asks for its clusters — never
	// holds its 16 B per router.
	analysis []cluster.Member
	// evMembers/evExpiries back the Members/Expiries slices of returned
	// Events, reused every Step; Step admits into them directly.
	evMembers  []int
	evExpiries []float64
	// bucket indexes the pending expiries by day (bucket.go).
	bucket bucketState
}

// New constructs a System from cfg. It panics on invalid configuration:
// N < 1, Tc negative or non-finite, nil Jitter, a non-finite jitter mean,
// or a mean period that does not exceed N·Tc (the network would spend all
// its time processing updates).
func New(cfg Config) *System {
	if cfg.N < 1 {
		panic("periodic: need at least one router")
	}
	if cfg.Tc < 0 || math.IsNaN(cfg.Tc) || math.IsInf(cfg.Tc, 1) {
		panic("periodic: Tc must be finite and non-negative")
	}
	if cfg.Jitter == nil {
		panic("periodic: nil jitter policy")
	}
	mean := cfg.Jitter.Mean()
	if math.IsNaN(mean) || math.IsInf(mean, 0) {
		panic("periodic: non-finite mean period")
	}
	if mean <= float64(cfg.N)*cfg.Tc {
		panic("periodic: mean period must exceed N*Tc (system otherwise saturates)")
	}
	s := &System{
		cfg:        cfg,
		r:          rng.New(cfg.Seed),
		expiry:     make([]float64, cfg.N),
		evMembers:  make([]int, cfg.N),
		evExpiries: make([]float64, cfg.N),
	}
	s.bucketInit()
	switch cfg.Start {
	case StartSynchronized:
		// all zero: one size-N cluster fires immediately
	default:
		for i := range s.expiry {
			s.expiry[i] = s.r.Uniform(0, mean)
		}
	}
	s.bucketRebuild()
	return s
}

// scratch returns the analysis buffer, allocating it on first use.
func (s *System) scratch() []cluster.Member {
	if s.analysis == nil {
		s.analysis = make([]cluster.Member, s.cfg.N)
	}
	return s.analysis
}

// Now returns the current simulation time (the End of the last event).
func (s *System) Now() float64 { return s.now }

// NextExpiry returns the earliest pending timer expiration, an O(1) read;
// callers inside run loops can read Event.Next from the previous Step
// instead.
func (s *System) NextExpiry() float64 { return s.bucket.min }

// OnEvent registers an observer invoked after every cluster firing.
func (s *System) OnEvent(fn func(Event)) { s.onEvent = append(s.onEvent, fn) }

// TriggerUpdate models a major network change (§3 step 4): every router
// sends a triggered update immediately, without waiting for its timer. All
// timers are therefore re-armed from one shared busy window — the system
// collapses into a single cluster of size N on the next Step.
func (s *System) TriggerUpdate() {
	for i := range s.expiry {
		s.expiry[i] = s.now
	}
	s.bucketRebuild()
}

// Step processes the next cluster firing and returns it. It starts from
// the kept rest of the last Step's frontier day, or else gathers days
// forward from the earliest pending expiry's day, and admits routers in
// (expiry, id) order while they fire inside the growing busy window
// [t, t+k·Tc) — the test-only sort-based reference's cluster.Grow, bit
// for bit. Per round the day cursor advances about one period, i.e.
// about N days of O(1) checks for N member firings, and each day is
// gathered and sorted once: O(k) per cluster for days of a few routers,
// O(k) radix passes for crowded days, and O(k log k) for runs of exactly
// equal expiries.
func (s *System) Step() Event {
	b := &s.bucket
	for day := b.cur; b.ci == len(b.cand); day++ {
		s.bucketGather(day)
	}
	cand, ci := b.cand, b.ci

	members, expiries := s.evMembers, s.evExpiries
	c := cand[ci]
	ci++
	t := c.Expiry
	members[0], expiries[0] = c.ID, t
	k := 1
	frontier := math.Inf(1)
	for k < s.cfg.N {
		if ci == len(cand) {
			s.bucketGather(b.cday + 1)
			cand, ci = b.cand, 0
			continue
		}
		c = cand[ci]
		if c.Expiry < t+float64(k)*s.cfg.Tc || c.Expiry == t {
			ci++
			members[k], expiries[k] = c.ID, c.Expiry
			k++
			continue
		}
		frontier = c.Expiry
		break
	}
	b.ci = ci

	end := t + float64(k)*s.cfg.Tc
	s.now = end
	rearmMin := math.Inf(1)
	for i, id := range members[:k] {
		delay := s.cfg.Jitter.Delay(s.r, id)
		var next float64
		switch s.cfg.Reset {
		case ResetOnExpiry:
			next = expiries[i] + delay
			if next < end {
				// The timer would have fired during the busy window;
				// the message goes out as soon as processing finishes.
				next = end
			}
		default: // ResetAfterProcessing, the paper's rule
			next = end + delay
		}
		s.expiry[id] = next
		s.bucketLink(int32(id))
		if next < rearmMin {
			rearmMin = next
		}
	}
	if ci < len(cand) && b.dayOf(rearmMin) <= b.cday {
		// A re-armed timer landed at or before the kept day, which is
		// then no longer whole in cand: relink its rest for the next
		// Step to gather. Otherwise the next Step starts on the kept day,
		// since its Next is the frontier or an earlier re-arm.
		for _, m := range cand[ci:] {
			s.bucketLink(int32(m.ID))
		}
		b.cand, b.ci = cand[:0], 0
	}
	next := frontier
	if rearmMin < next {
		next = rearmMin
	}
	b.min = next
	b.cur = b.dayOf(next)
	ev := Event{
		Start:    t,
		End:      end,
		Members:  members[:k],
		Expiries: expiries[:k],
		Next:     next,
	}
	if s.cfg.Observer != nil {
		s.cfg.Observer.RoundCompleted(s.now, k)
	}
	for _, fn := range s.onEvent {
		fn(ev)
	}
	return ev
}

// RunUntil processes cluster firings while the earliest pending expiry is
// <= horizon. It returns the number of events processed.
func (s *System) RunUntil(horizon float64) uint64 {
	var n uint64
	next := s.NextExpiry()
	for next <= horizon {
		next = s.Step().Next
		n++
	}
	return n
}

// RoundWindow returns the nominal round length Tp + Tc used for
// time-offset plots and per-round largest-cluster tracking (paper Fig 4:
// "the time mod T, for T = Tp + Tc").
func (s *System) RoundWindow() float64 {
	return s.cfg.Jitter.Mean() + s.cfg.Tc
}
