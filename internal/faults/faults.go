// Package faults is the deterministic failure and churn layer for the
// packet-level simulator: link flaps and node crash/reboot cycles,
// injected as first-class keyed DES events so a churned run stays
// bit-identical to its sequential execution for any partition count, on
// both DES backends.
//
// Two rules buy that determinism:
//
//   - Every fault transition is scheduled through the affected nodes
//     (netsim.Node.Schedule), so it carries an (origin node, sequence)
//     ordering key and executes on the owning logical process. A link
//     that crosses a partition boundary flips each endpoint's private
//     view from that endpoint's own event — state never crosses the
//     boundary.
//   - Every random draw comes from a per-target stream derived from the
//     injector seed and the target's identity, and the whole timeline is
//     materialized at install time (single-threaded), so neither the
//     partitioning nor the installation order can reorder draws.
//
// Like workloads and agents, fault processes must be installed after
// netsim.Network.Partition and before the run starts.
//
// On top of the injector, Monitor measures routing-state freshness — the
// age-of-information instrumentation (per-destination FIB-entry age,
// staleness at failure instants, outage and convergence tails) behind
// the churn experiments, following the age-of-information framing of
// "Timely Mobile Routing: An Experimental Study" (see PAPERS.md).
package faults

import (
	"fmt"
	"sort"

	"routesync/internal/netsim"
	"routesync/internal/rng"
)

// Kind classifies injected fault events.
type Kind int

// Fault event kinds.
const (
	LinkDown Kind = iota
	LinkUp
	NodeCrash
	NodeReboot
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case NodeCrash:
		return "node-crash"
	case NodeReboot:
		return "node-reboot"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one recorded fault transition.
type Event struct {
	At   float64
	Kind Kind
}

// Injector schedules fault processes on the links and agents of one
// network and records the resulting timeline. Install every fault after
// Partition and before the run; the injector itself is then passive (the
// scheduled events do the work), so reading the timeline during or after
// the run is safe.
type Injector struct {
	seed     int64
	timeline []Event
}

// NewInjector creates an injector whose random fault processes draw
// from streams derived from seed.
func NewInjector(seed int64) *Injector {
	return &Injector{seed: seed}
}

// stream derives the per-target random stream for a fault process: a
// pure function of the injector seed, a per-process salt and the
// target's identity, so install order is irrelevant.
func (in *Injector) stream(salt, a, b int64) *rng.Source {
	return rng.New(in.seed*1000003 ^ salt*0x9E3779B9 ^ (a+1)*8191 ^ (b+1)*131071)
}

// FailLink schedules a one-shot link failure at absolute time t.
func (in *Injector) FailLink(l *netsim.Link, t float64) {
	l.FailAt(t)
	in.timeline = append(in.timeline, Event{At: t, Kind: LinkDown})
}

// RestoreLink schedules a one-shot link restore at absolute time t.
func (in *Injector) RestoreLink(l *netsim.Link, t float64) {
	l.RestoreAt(t)
	in.timeline = append(in.timeline, Event{At: t, Kind: LinkUp})
}

// FlapConfig parameterizes a seeded link-flap process.
type FlapConfig struct {
	// MeanUp and MeanDown are the mean working and outage durations in
	// seconds; both phases are exponentially distributed.
	MeanUp, MeanDown float64
	// Start is when the process begins (the first failure lands an
	// Exp(MeanUp) after it); Horizon bounds the materialized timeline.
	Start, Horizon float64
}

// FlapLink installs a flap process on l: alternating Exp(MeanUp)
// working periods and Exp(MeanDown) outages over [Start, Horizon),
// drawn from a stream keyed by the link's endpoints. An outage that
// would extend past Horizon is left open — the link stays down.
func (in *Injector) FlapLink(l *netsim.Link, cfg FlapConfig) {
	if cfg.MeanUp <= 0 || cfg.MeanDown <= 0 || cfg.Horizon <= cfg.Start {
		panic("faults: invalid flap config")
	}
	ends := l.Endpoints()
	r := in.stream(0x11, int64(ends[0].ID), int64(ends[1].ID))
	t := cfg.Start + r.Exponential(cfg.MeanUp)
	for t < cfg.Horizon {
		in.FailLink(l, t)
		t += r.Exponential(cfg.MeanDown)
		if t >= cfg.Horizon {
			break
		}
		in.RestoreLink(l, t)
		t += r.Exponential(cfg.MeanUp)
	}
}

// Rebootable is any protocol agent the injector can crash and reboot.
// All three protocol families (routing, linkstate, pathvector) satisfy
// it through the shared internal/protocol kernel, so one churn layer
// serves every family.
type Rebootable interface {
	Node() *netsim.Node
	// Crash models a power failure: volatile routing state lost, data
	// plane dead until Restart.
	Crash()
	// Restart reboots a stopped agent with the given start offset.
	Restart(startOffset float64)
}

// CrashAgent schedules ag to crash at absolute time t (power failure:
// volatile routing state lost, data plane dead until reboot).
func (in *Injector) CrashAgent(ag Rebootable, t float64) {
	ag.Node().Schedule(t, "fault-crash", func() { ag.Crash() })
	in.timeline = append(in.timeline, Event{At: t, Kind: NodeCrash})
}

// RebootAgent schedules ag to reboot at absolute time t with the given
// start offset (the delay until its first periodic update; with
// RequestOnStart the table request goes out immediately).
func (in *Injector) RebootAgent(ag Rebootable, t, startOffset float64) {
	ag.Node().Schedule(t, "fault-reboot", func() { ag.Restart(startOffset) })
	in.timeline = append(in.timeline, Event{At: t, Kind: NodeReboot})
}

// ChurnConfig parameterizes a seeded node crash/reboot process.
type ChurnConfig struct {
	// MeanUp and MeanDown are the mean alive and dead durations in
	// seconds; both phases are exponentially distributed.
	MeanUp, MeanDown float64
	// Start is when the process begins; Horizon bounds the timeline. A
	// crash whose outage would extend past Horizon leaves the node down.
	Start, Horizon float64
	// RebootOffset is the start offset handed to the agent on every
	// reboot.
	RebootOffset float64
}

// ChurnAgent installs a crash/reboot process on ag, drawn from a stream
// keyed by the agent's node.
func (in *Injector) ChurnAgent(ag Rebootable, cfg ChurnConfig) {
	if cfg.MeanUp <= 0 || cfg.MeanDown <= 0 || cfg.Horizon <= cfg.Start {
		panic("faults: invalid churn config")
	}
	r := in.stream(0x22, int64(ag.Node().ID), 0)
	t := cfg.Start + r.Exponential(cfg.MeanUp)
	for t < cfg.Horizon {
		in.CrashAgent(ag, t)
		t += r.Exponential(cfg.MeanDown)
		if t >= cfg.Horizon {
			break
		}
		in.RebootAgent(ag, t, cfg.RebootOffset)
		t += r.Exponential(cfg.MeanUp)
	}
}

// Timeline returns a copy of every installed fault event sorted by time
// (install order breaks ties), for reporting and for staleness-at-
// failure sampling.
func (in *Injector) Timeline() []Event {
	out := append([]Event(nil), in.timeline...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// FailureTimes returns the sorted times at which something breaks (a
// LinkDown or NodeCrash fires) — the instants of interest for
// staleness-at-failure measurement. Duplicate instants are collapsed.
func (in *Injector) FailureTimes() []float64 {
	var ts []float64
	for _, e := range in.Timeline() {
		if e.Kind != LinkDown && e.Kind != NodeCrash {
			continue
		}
		if len(ts) > 0 && ts[len(ts)-1] == e.At {
			continue
		}
		ts = append(ts, e.At)
	}
	return ts
}
