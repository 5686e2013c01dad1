// Package jitter defines routing-timer jitter policies — the knob the
// paper's whole argument turns on. A Policy produces the delay a router
// waits between setting its routing timer and the timer's next expiration.
//
// The paper's §5.3 and §6 distill into concrete guidance, exposed here as
// Recommend: a random component Tr at least ten times the per-message
// processing cost Tc breaks up clusters quickly for a wide parameter range,
// and drawing the whole timer from U[0.5·Tp, 1.5·Tp] (Tr = Tp/2)
// eliminates synchronization outright.
package jitter

import (
	"fmt"

	"routesync/internal/rng"
)

// Policy yields successive routing-timer delays for a router. Policies may
// be stateful per router (see PerRouterFixed) but must be deterministic
// given the rng stream.
type Policy interface {
	// Delay returns the next timer interval in seconds for router id.
	Delay(r *rng.Source, id int) float64
	// Mean returns the expected timer interval (used for round windows).
	Mean() float64
	fmt.Stringer
}

// None is a deterministic timer with no random component: every interval
// is exactly Tp. This is the pathological configuration the paper warns
// about — synchronization, once formed, is permanent.
type None struct {
	Tp float64
}

// Delay implements Policy.
func (p None) Delay(*rng.Source, int) float64 { return p.Tp }

// Mean implements Policy.
func (p None) Mean() float64 { return p.Tp }

func (p None) String() string { return fmt.Sprintf("none(Tp=%g)", p.Tp) }

// Uniform draws each interval from U[Tp−Tr, Tp+Tr] — the paper's Periodic
// Messages model timer (§3 step 3).
type Uniform struct {
	Tp float64 // mean period
	Tr float64 // half-width of the random component
}

// Delay implements Policy.
func (p Uniform) Delay(r *rng.Source, _ int) float64 {
	return r.Uniform(p.Tp-p.Tr, p.Tp+p.Tr)
}

// Mean implements Policy.
func (p Uniform) Mean() float64 { return p.Tp }

func (p Uniform) String() string { return fmt.Sprintf("uniform(Tp=%g,Tr=%g)", p.Tp, p.Tr) }

// HalfSpread draws each interval from U[0.5·Tp, 1.5·Tp], the paper's §6
// recommended "simple way to avoid synchronized routing messages". It is
// exactly Uniform with Tr = Tp/2 and exists as its own type so call sites
// read like the paper.
type HalfSpread struct {
	Tp float64
}

// Delay implements Policy.
func (p HalfSpread) Delay(r *rng.Source, _ int) float64 {
	return r.Uniform(0.5*p.Tp, 1.5*p.Tp)
}

// Mean implements Policy.
func (p HalfSpread) Mean() float64 { return p.Tp }

func (p HalfSpread) String() string { return fmt.Sprintf("halfspread(Tp=%g)", p.Tp) }

// PerRouterFixed gives router i the deterministic period Tp + offset_i,
// with offsets drawn once (uniformly from [−Spread, +Spread]) from a seed.
// This is the "set the routing update interval at each router to a
// different random value" alternative discussed in the paper's §6 — it
// avoids lock-step synchronization but provides no mechanism to break up
// clusters formed by triggered updates, which the tests demonstrate.
type PerRouterFixed struct {
	Tp     float64
	Spread float64
	offset map[int]float64
	src    *rng.Source
}

// NewPerRouterFixed creates the policy; offsets are drawn lazily per
// router id from the given seed so the mapping is stable.
func NewPerRouterFixed(tp, spread float64, seed int64) *PerRouterFixed {
	return &PerRouterFixed{Tp: tp, Spread: spread, offset: make(map[int]float64), src: rng.New(seed)}
}

// Delay implements Policy.
func (p *PerRouterFixed) Delay(_ *rng.Source, id int) float64 {
	off, ok := p.offset[id]
	if !ok {
		off = p.src.Uniform(-p.Spread, p.Spread)
		p.offset[id] = off
	}
	return p.Tp + off
}

// Mean implements Policy.
func (p *PerRouterFixed) Mean() float64 { return p.Tp }

func (p *PerRouterFixed) String() string {
	return fmt.Sprintf("perrouter(Tp=%g,spread=%g)", p.Tp, p.Spread)
}

// Mixed assigns different policies to different routers — heterogeneous
// deployments (e.g. RIP's 30-second timers sharing a LAN with IGRP's
// 90-second timers). Routers without an entry use Fallback.
type Mixed struct {
	Policies map[int]Policy
	Fallback Policy
}

// Delay implements Policy.
func (m Mixed) Delay(r *rng.Source, id int) float64 {
	if p, ok := m.Policies[id]; ok {
		return p.Delay(r, id)
	}
	return m.Fallback.Delay(r, id)
}

// Mean implements Policy; it reports the fallback's mean, which callers
// should treat as nominal only (per-router means differ by design).
func (m Mixed) Mean() float64 { return m.Fallback.Mean() }

func (m Mixed) String() string {
	return fmt.Sprintf("mixed(%d overrides, fallback %s)", len(m.Policies), m.Fallback)
}

// Recommendation is the output of Recommend: how much randomness a
// deployment needs.
type Recommendation struct {
	// MinTr is the smallest random component (seconds) expected to break
	// up synchronization promptly: 10 × Tc (paper §5.3: "for a wide range
	// of parameters, choosing Tr at least ten times greater than Tc
	// ensures that clusters of routing messages will be quickly broken
	// up").
	MinTr float64
	// SafeTr eliminates synchronization for any parameters: Tp/2, i.e.
	// the timer is drawn from U[0.5·Tp, 1.5·Tp] (paper §5.3/§6).
	SafeTr float64
}

// Recommend returns the paper's jitter guidance for a protocol with mean
// period tp and per-message processing cost tc (both seconds). It panics
// for non-positive tp or negative tc.
//
// Worked example (paper §1): Xerox PARC's cisco routers took ~1 ms per
// route × 300 routes = 0.3 s to process an update, so MinTr = 3 s — hence
// the paper's statement that "the routers would have to add at least a
// second of randomness" is comfortably inside this bound.
func Recommend(tp, tc float64) Recommendation {
	if tp <= 0 {
		panic("jitter: Recommend needs tp > 0")
	}
	if tc < 0 {
		panic("jitter: Recommend needs tc >= 0")
	}
	return Recommendation{
		MinTr:  10 * tc,
		SafeTr: tp / 2,
	}
}
