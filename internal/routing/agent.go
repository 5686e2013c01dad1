package routing

import (
	"math"

	"routesync/internal/jitter"
	"routesync/internal/netsim"
	"routesync/internal/protocol"
)

// Costs models router CPU consumption per routing message, following the
// paper's Xerox PARC measurement of roughly 1 ms per route.
type Costs struct {
	// PerRoutePrepare is seconds of CPU per route to build an update.
	PerRoutePrepare float64
	// PerRouteProcess is seconds of CPU per route to process a received
	// update.
	PerRouteProcess float64
	// MinPrepare / MinProcess floor the per-message cost (header
	// parsing, scheduling) regardless of route count.
	MinPrepare float64
	MinProcess float64
}

// DefaultCosts returns the paper's measured cost model: 1 ms per route
// each way with a 1 ms floor.
func DefaultCosts() Costs {
	return Costs{PerRoutePrepare: 0.001, PerRouteProcess: 0.001, MinPrepare: 0.001, MinProcess: 0.001}
}

// Config assembles an agent's behaviour.
type Config struct {
	// Profile holds the protocol constants (period, infinity, ...).
	Profile Profile
	// Jitter yields timer intervals; nil means the deterministic period
	// (jitter.None), the configuration the paper warns about.
	Jitter jitter.Policy
	// Costs models CPU consumption; the zero value means free processing
	// (useful for pure-convergence tests).
	Costs Costs
	// TriggeredResetsTimer controls whether a triggered update re-arms
	// the periodic timer (§3 step 4 does; some real implementations do
	// not [Li93]).
	TriggeredResetsTimer bool
	// ExtraRoutes inflates the advertised table with this many synthetic
	// routes, modelling routers that carry many more destinations than
	// the simulated topology (the PARC routers carried ~300 routes).
	ExtraRoutes int
	// RequestOnStart broadcasts a table request when the agent starts
	// (RFC 1058 §3.4.1), so a rebooted router converges without waiting
	// up to a full period for its neighbors' timers.
	RequestOnStart bool
	// Seed drives the agent's private jitter stream.
	Seed int64
}

// Stats counts agent activity.
type Stats struct {
	PeriodicSent     uint64
	TriggeredSent    uint64
	Received         uint64
	Malformed        uint64
	TimerResets      uint64
	RouteChanges     uint64
	ExpiredRoutes    uint64
	DeletedRoutes    uint64
	RequestsSent     uint64
	RequestsAnswered uint64
}

// Agent is one router's routing process: a distance-vector protocol
// strategy over the shared protocol kernel, which owns the timer, CPU
// and crash/restart machinery.
type Agent struct {
	k   *protocol.Kernel
	cfg Config

	table    *Table
	lastTrig float64
	stats    Stats

	// OnSend, if set, observes every update transmission (experiments
	// use it for cluster detection on the packet-level substrate).
	OnSend func(t float64, triggered bool)
	// OnRouteChange, if set, observes forwarding-state transitions for a
	// destination: reachable == true when a route is (re)programmed into
	// the FIB, false when the destination becomes unreachable or its
	// route is expired. The age-of-information instrumentation in
	// internal/faults hangs off this hook; nil costs one predictable
	// branch per transition.
	OnRouteChange func(dest netsim.NodeID, metric uint32, reachable bool)
}

// NewAgent creates an agent on node and installs its receive hook. Call
// Start to arm the first timer. It panics on invalid configuration.
func NewAgent(node *netsim.Node, cfg Config) *Agent {
	if err := cfg.Profile.Validate(); err != nil {
		panic(err)
	}
	if cfg.Jitter == nil {
		cfg.Jitter = jitter.None{Tp: cfg.Profile.Period}
	}
	if cfg.Costs.PerRoutePrepare < 0 || cfg.Costs.PerRouteProcess < 0 ||
		cfg.Costs.MinPrepare < 0 || cfg.Costs.MinProcess < 0 {
		panic("routing: negative costs")
	}
	if cfg.ExtraRoutes < 0 || cfg.ExtraRoutes > MaxEntries/2 {
		panic("routing: ExtraRoutes out of range")
	}
	a := &Agent{
		cfg:   cfg,
		table: NewTable(cfg.Profile.Infinity),
	}
	a.table.SetHoldDown(cfg.Profile.HoldDown)
	a.k = protocol.New(protocol.Config{
		Name:       "routing",
		Node:       node,
		Seed:       cfg.Seed ^ int64(node.ID)*0x9E3779B9,
		Jitter:     cfg.Jitter,
		TimerLabel: "routing-timer",
		RearmLabel: "routing-rearm-wait",
		SweepLabel: "routing-sweep",
		SweepEvery: cfg.Profile.Period,
	}, protocol.Hooks{
		Fire:    a.onTimer,
		Receive: a.receive,
		Process: a.process,
		Sweep:   a.sweep,
		// Reset in place: the table's route array, interned media and
		// scratch keep their capacity, so repeated crash/reboot cycles
		// stop allocating once the first life's high-water marks are
		// reached.
		ResetVolatile: func() { a.table.Reset() },
		Restarted: func() {
			a.lastTrig = a.k.Node().Now() - triggerHoldoff
		},
	})
	return a
}

// Node returns the agent's node.
func (a *Agent) Node() *netsim.Node { return a.k.Node() }

// Table returns the agent's routing table.
func (a *Agent) Table() *Table { return a.table }

// Stats returns a snapshot of the counters.
func (a *Agent) Stats() Stats {
	s := a.stats
	s.TimerResets = a.k.TimerResets()
	return s
}

// Start installs the router's own route and arms the first timer to fire
// at startOffset seconds from now. A shared startOffset of 0 across
// agents models the post-restart synchronized state; drawing offsets from
// U[0, Period] models the unsynchronized state.
func (a *Agent) Start(startOffset float64) {
	node := a.k.Node()
	a.table.SetLocal(node.ID, node.Now())
	a.k.StartTimer(startOffset)
	// Housekeeping sweep, offset to avoid colliding with the timer.
	a.k.ScheduleSweep()
	if a.cfg.RequestOnStart {
		a.sendRequest()
	}
}

// sendRequest broadcasts a table request on every medium, encoding it
// straight into each packet.
func (a *Agent) sendRequest() {
	node := a.k.Node()
	for i := 0; i < node.NumMedia(); i++ {
		pkt, buf := a.k.Begin(netsim.Broadcast, headerLen)
		payload, err := EncodeInto(buf, Message{Router: node.ID, Request: true})
		if err != nil {
			panic(err)
		}
		a.k.Send(node.MediumAt(i), pkt, payload)
	}
	a.stats.RequestsSent++
}

// Crash models a power failure mid-run: the volatile routing state —
// table, hold-down windows, FIB — is lost and the node is marked failed
// until Restart; see the kernel's Crash.
func (a *Agent) Crash() { a.k.Crash() }

// Restart reboots a stopped agent and arms the first periodic timer
// startOffset seconds from now; see the kernel's Restart. With
// Config.RequestOnStart set the agent broadcasts a table request
// immediately (RFC 1058 §3.4.1), so recovery does not wait on the
// neighbors' periodic timers.
func (a *Agent) Restart(startOffset float64) {
	a.k.Restart()
	a.Start(startOffset)
}

// onTimer fires at a periodic timer expiration: prepare and send the
// router's own update (§3 step 1).
func (a *Agent) onTimer() {
	a.sendUpdate(false, true)
}

// sendUpdate broadcasts an update and charges the preparation cost to the
// CPU. The broadcast leaves immediately — the paper's §4 simulation
// assumption that "the other nodes are immediately notified that node A
// will be sending a routing message", which reflects real multi-packet
// updates whose first packets arrive while the sender is still preparing
// the rest. The preparation cost then occupies the CPU, and when
// resetTimer is set the periodic timer is re-armed only after the CPU
// backlog (own preparation plus any incoming updates) drains (§3 step 3).
func (a *Agent) sendUpdate(triggered, resetTimer bool) {
	a.broadcast(triggered)
	prep := math.Max(a.cfg.Costs.MinPrepare,
		a.cfg.Costs.PerRoutePrepare*float64(a.table.Len()+a.cfg.ExtraRoutes))
	a.k.FinishSend(prep, resetTimer)
}

// broadcast transmits the table on every attached medium, applying split
// horizon per medium. Each message of the update is written straight
// from the table into its packet's pooled payload, sized exactly
// beforehand, so a steady-state update allocates nothing. A table past
// MaxEntries goes out as several messages back to back; it still counts
// as one update.
func (a *Agent) broadcast(triggered bool) {
	node := a.k.Node()
	p := &a.cfg.Profile
	for i := 0; i < node.NumMedia(); i++ {
		m := node.MediumAt(i)
		u := a.table.NewUpdate(node.ID, triggered, m, p.SplitHorizon, p.PoisonReverse, a.cfg.ExtraRoutes)
		for u.More() {
			pkt, buf := a.k.Begin(netsim.Broadcast, u.Len())
			a.k.Send(m, pkt, u.Append(buf))
		}
	}
	if triggered {
		a.stats.TriggeredSent++
	} else {
		a.stats.PeriodicSent++
	}
	if a.OnSend != nil {
		a.OnSend(node.Now(), triggered)
	}
}

// receive handles an incoming routing packet: consume CPU, then fold the
// update into the table (§3 steps 2/4). netsim transfers packet
// ownership here; every path ends in ReleasePacket — immediately for
// drops, synchronous processing and request replies, or from the
// kernel's work handler once the CPU finishes for queued work.
func (a *Agent) receive(pkt *netsim.Packet, via netsim.Medium) {
	node := a.k.Node()
	router, _, request, count, err := PeekHeader(pkt.Payload)
	if err != nil {
		a.stats.Malformed++
		node.ReleasePacket(pkt)
		return
	}
	if router == node.ID {
		node.ReleasePacket(pkt) // our own broadcast reflected back; ignore
		return
	}
	a.stats.Received++
	if request {
		// Answer with a full update without resetting our own timer
		// (RFC 1058: responses to requests are not regular updates).
		a.stats.RequestsAnswered++
		a.sendUpdate(false, false)
		node.ReleasePacket(pkt)
		return
	}
	proc := math.Max(a.cfg.Costs.MinProcess,
		a.cfg.Costs.PerRouteProcess*float64(count))
	a.k.Process(pkt, via, 0, proc)
}

// process is the kernel's processing completion: integrate the
// validated update (the synchronous no-CPU path lands here too).
func (a *Agent) process(pkt *netsim.Packet, via netsim.Medium, _ uint64) {
	a.integrate(pkt.Payload, via)
}

// PendingPackets returns the number of received updates the agent is
// holding while their processing cost drains through the CPU model —
// packets the agent owns but has not released yet. Leak audits add it to
// netsim's parked counts.
func (a *Agent) PendingPackets() int { return a.k.PendingPackets() }

// integrate applies an update that receive validated straight off the
// wire and reacts: FIB programming, triggered-update propagation.
func (a *Agent) integrate(payload []byte, via netsim.Medium) {
	triggered := payload[3]&flagTriggered != 0
	node := a.k.Node()
	now := node.Now()
	res := a.table.ApplyCost(payload, via, now, 1) // the agent counts hops
	if res.Changed {
		a.stats.RouteChanges++
	}
	for _, i := range res.Installed {
		// A later entry of the same update may have made it unreachable.
		r := a.table.At(i)
		if r.Metric < a.table.Infinity() {
			node.SetRoute(r.Dest, a.table.Via(r), r.NextHop)
			if a.OnRouteChange != nil {
				a.OnRouteChange(r.Dest, r.Metric, true)
			}
		}
	}
	for _, dest := range res.Unreachable {
		node.ClearRoute(dest)
		if a.OnRouteChange != nil {
			a.OnRouteChange(dest, a.table.Infinity(), false)
		}
	}
	if !a.cfg.Profile.TriggeredUpdates {
		return
	}
	// §3 step 4: an incoming triggered update that changes the table, or
	// any worsening, provokes our own triggered update ("the first
	// triggered update results in a wave of triggered updates").
	if (triggered && res.Changed) || res.Worsened {
		a.triggerUpdate()
	}
}

// triggerHoldoff is the minimum spacing of triggered updates, in seconds.
const triggerHoldoff = 1.0

// triggerUpdate sends a rate-limited triggered update.
func (a *Agent) triggerUpdate() {
	now := a.k.Node().Now()
	if now-a.lastTrig < triggerHoldoff {
		return
	}
	a.lastTrig = now
	a.sendUpdate(true, a.cfg.TriggeredResetsTimer)
}

// sweep is the periodic route-aging housekeeping body; the kernel
// schedules it every Profile.Period.
func (a *Agent) sweep() {
	node := a.k.Node()
	now := node.Now()
	timeout := a.cfg.Profile.TimeoutFactor * a.cfg.Profile.Period
	gc := a.cfg.Profile.GCFactor * a.cfg.Profile.Period
	unreachable, deleted := a.table.Expire(now, timeout, gc)
	a.stats.ExpiredRoutes += uint64(len(unreachable))
	a.stats.DeletedRoutes += uint64(len(deleted))
	for _, dest := range unreachable {
		node.ClearRoute(dest)
		if a.OnRouteChange != nil {
			a.OnRouteChange(dest, a.table.Infinity(), false)
		}
	}
	if len(unreachable) > 0 && a.cfg.Profile.TriggeredUpdates {
		a.triggerUpdate()
	}
}
