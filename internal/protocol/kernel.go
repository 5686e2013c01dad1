// Package protocol is the protocol-agnostic agent kernel: the shared
// lifecycle machinery every routing-protocol family on the netsim
// substrate needs — periodic/triggered timer arming with jitter
// policies, the CPU work its agent submits (received packets held by
// generation-checked handle, update preparations), the routing-packet
// send path, and Crash/Restart with cold start.
//
// The distance-vector (internal/routing), link-state
// (internal/linkstate) and path-vector (internal/pathvector) agents are
// thin protocol strategies over one Kernel each: they supply the
// protocol behaviour — what to send on a timer fire, how to integrate a
// received update, what volatile state a crash loses — through Hooks,
// and the kernel owns when things run: timers re-armed only after the
// CPU backlog drains (the paper's §3 coupling), completions invalidated
// across reboots, packets released on every path.
package protocol

import (
	"math"

	"routesync/internal/des"
	"routesync/internal/jitter"
	"routesync/internal/netsim"
	"routesync/internal/rng"
)

// Hooks are the protocol strategy callbacks a family plugs into its
// kernel. Fire, Receive and Process are required; the rest are optional.
type Hooks struct {
	// Fire runs at each periodic-timer expiration (never after Stop):
	// the protocol prepares and sends its own update, then calls
	// FinishSend to charge the preparation cost and re-arm.
	Fire func()
	// Receive is the node's OnRouting handler; the kernel installs it at
	// New and reinstalls it at Restart. It owns the arriving packet and
	// must end every path in ReleasePacket — directly for drops and
	// synchronous work, or via Kernel.Process for CPU-queued work.
	Receive func(pkt *netsim.Packet, via netsim.Medium)
	// Process runs when a queued packet's CPU cost has drained (from the
	// generation current when it was queued), with the aux the family
	// passed to Kernel.Process. The kernel releases the packet when
	// Process returns; implementations keeping payload bytes must copy
	// them.
	Process func(pkt *netsim.Packet, via netsim.Medium, aux uint64)
	// Sweep runs at each housekeeping expiration (route aging, LSA
	// MaxAge, stale-path GC); the kernel re-schedules the next sweep.
	Sweep func()
	// ResetVolatile clears the protocol state a power failure loses —
	// tables, databases, adjacency caches — during Crash, after the
	// kernel has stopped the agent and flushed the node FIB. Reset in
	// place where possible: reboot cycles should stop allocating once
	// the first life's high-water marks are reached.
	ResetVolatile func()
	// Restarted runs during Restart, after the node is restored but
	// before the receive hook is reinstalled — the place to reset rate
	// limiters and other wall-clock-relative state.
	Restarted func()
}

// Config assembles a kernel.
type Config struct {
	// Name is the protocol family name, used in panic messages.
	Name string
	// Node is the router this agent runs on.
	Node *netsim.Node
	// Seed is the fully mixed seed for the kernel's private jitter
	// stream (families mix their own node-id constant before passing).
	Seed int64
	// Jitter yields periodic-timer intervals; required (families
	// substitute jitter.None before constructing the kernel).
	Jitter jitter.Policy
	// TimerLabel, RearmLabel and SweepLabel name the kernel's events in
	// des's past-time panic, which also prints the event's key (and with
	// it the scheduling node), so constant strings suffice.
	TimerLabel string
	RearmLabel string
	SweepLabel string
	// SweepEvery is the housekeeping interval; zero disables the sweep.
	SweepEvery float64
}

// Kernel owns one agent's protocol-agnostic lifecycle.
type Kernel struct {
	node *netsim.Node
	r    *rng.Source
	jit  jitter.Policy
	name string

	timerLabel string
	rearmLabel string
	sweepLabel string
	sweepEvery float64

	timerEv des.Event
	sweepEv des.Event
	waitEv  des.Event
	stopped bool
	// gen counts agent lifetimes: Stop bumps it, and CPU work records
	// carry the gen they were submitted under, so a reboot
	// (Crash/Restart) never processes work from a previous life.
	gen         uint32
	timerResets uint64
	// pending counts the WorkReceive items submitted to the CPU and not
	// yet completed: packets the agent owns but has not released.
	pending int

	// Hoisted closures: one allocation per agent lifetime, not per
	// event. timerFn is the onTimer method value armAt re-schedules
	// every period.
	rearmFn func()
	sweepFn func()
	timerFn func()

	hooks Hooks
}

// New creates a kernel on cfg.Node and installs hooks.Receive as the
// node's routing handler. Call StartTimer/ScheduleSweep (usually from
// the family's Start) to begin. It panics on an invalid configuration.
func New(cfg Config, hooks Hooks) *Kernel {
	if cfg.Node == nil {
		panic(cfg.Name + ": kernel needs a node")
	}
	if cfg.Jitter == nil {
		panic(cfg.Name + ": kernel needs a jitter policy")
	}
	if hooks.Fire == nil || hooks.Receive == nil || hooks.Process == nil {
		panic(cfg.Name + ": kernel needs Fire, Receive and Process hooks")
	}
	if cfg.SweepEvery > 0 && hooks.Sweep == nil {
		panic(cfg.Name + ": sweep interval without a Sweep hook")
	}
	k := &Kernel{
		node:       cfg.Node,
		r:          rng.New(cfg.Seed),
		jit:        cfg.Jitter,
		name:       cfg.Name,
		timerLabel: cfg.TimerLabel,
		rearmLabel: cfg.RearmLabel,
		sweepLabel: cfg.SweepLabel,
		sweepEvery: cfg.SweepEvery,
		hooks:      hooks,
	}
	k.rearmFn = k.rearmWhenIdle
	k.timerFn = k.onTimer
	k.sweepFn = func() {
		if k.stopped {
			return
		}
		k.hooks.Sweep()
		k.ScheduleSweep()
	}
	cfg.Node.OnRouting = hooks.Receive
	cfg.Node.OnWork = k.onWork
	return k
}

// onWork completes the CPU work this kernel submitted, in submission
// order. Work from a previous life skips the Process hook and the
// re-arm, but a received packet is released either way.
func (k *Kernel) onWork(w netsim.Work) {
	switch w.Kind {
	case netsim.WorkReceive:
		k.pending--
		pkt := w.Ref.Get()
		if w.Gen == k.gen {
			k.hooks.Process(pkt, w.Via, w.Aux)
		}
		k.node.ReleasePacket(pkt)
	case netsim.WorkPrepare:
		if w.Gen == k.gen {
			k.rearmWhenIdle()
		}
	}
}

// Node returns the agent's node.
func (k *Kernel) Node() *netsim.Node { return k.node }

// RNG returns the kernel's private random stream — the one the jitter
// policy draws from. Families needing extra randomness (per-peer MRAI
// jitter) share it so an agent's draw sequence stays a pure function of
// its seed.
func (k *Kernel) RNG() *rng.Source { return k.r }

// Stopped reports whether the agent is stopped.
func (k *Kernel) Stopped() bool { return k.stopped }

// TimerResets returns the number of periodic-timer arms over the
// agent's lifetimes.
func (k *Kernel) TimerResets() uint64 { return k.timerResets }

// PendingPackets returns the number of received packets the kernel is
// holding while their processing cost drains through the CPU model —
// packets the agent owns but has not released yet. Leak audits add it
// to netsim's parked counts.
func (k *Kernel) PendingPackets() int { return k.pending }

// StartTimer arms the first periodic expiration startOffset seconds
// from now. A shared startOffset of 0 across agents models the
// post-restart synchronized state; drawing offsets from U[0, Period]
// models the unsynchronized state.
func (k *Kernel) StartTimer(startOffset float64) {
	if startOffset < 0 {
		panic(k.name + ": negative start offset")
	}
	k.armAt(k.node.Now() + startOffset)
}

// ScheduleSweep arms the next housekeeping sweep (a no-op when the
// configuration disables sweeping).
func (k *Kernel) ScheduleSweep() {
	if k.stopped || k.sweepEvery <= 0 {
		return
	}
	k.sweepEv = k.node.After(k.sweepEvery, k.sweepLabel, k.sweepFn)
}

func (k *Kernel) armAt(at float64) {
	k.timerEv = k.node.Schedule(at, k.timerLabel, k.timerFn)
	k.timerResets++
}

// onTimer fires at a periodic timer expiration.
func (k *Kernel) onTimer() {
	if k.stopped {
		return
	}
	k.hooks.Fire()
}

// FinishSend charges cost seconds of update-preparation CPU and, when
// resetTimer is set, re-arms the periodic timer once the CPU backlog
// (the router's own preparation plus any incoming updates that arrived
// during it) drains — the coupling mechanism of the paper (§3 step 3).
// Without a CPU (or with zero cost) the re-arm happens synchronously.
func (k *Kernel) FinishSend(cost float64, resetTimer bool) {
	switch {
	case k.node.CPU != nil && cost > 0 && resetTimer:
		k.node.CPU.OccupyThen(cost, netsim.Work{Gen: k.gen, Kind: netsim.WorkPrepare})
	case k.node.CPU != nil && cost > 0:
		k.node.CPU.Occupy(cost)
	case resetTimer:
		k.rearmWhenIdle()
	}
}

func (k *Kernel) rearmWhenIdle() {
	if k.stopped {
		return
	}
	if k.node.CPU != nil && k.node.CPU.Busy() {
		k.waitEv = k.node.Schedule(k.node.CPU.BusyUntil(), k.rearmLabel, k.rearmFn)
		return
	}
	k.node.Cancel(k.timerEv)
	k.armAt(k.node.Now() + k.jit.Delay(k.r, int(k.node.ID)))
}

// Process routes an arrived packet through the CPU model: with a CPU
// and a positive cost the packet parks in the CPU's work FIFO — held by
// generation-checked handle — and hooks.Process runs when the cost
// drains; otherwise it runs synchronously. Either way the kernel
// releases the packet slot when processing completes.
func (k *Kernel) Process(pkt *netsim.Packet, via netsim.Medium, aux uint64, cost float64) {
	if k.node.CPU != nil && cost > 0 {
		k.pending++
		k.node.CPU.OccupyThen(cost, netsim.Work{Ref: pkt.Ref(), Via: via, Aux: aux, Gen: k.gen, Kind: netsim.WorkReceive})
		return
	}
	k.hooks.Process(pkt, via, aux)
	k.node.ReleasePacket(pkt)
}

// wireOverhead is the UDP/IP-style framing every family's routing
// packets are charged on the wire.
const wireOverhead = 28

// Begin draws the routing packet for an n-byte message toward to
// (netsim.Broadcast for every member) and returns it with its payload
// arena, emptied and grown to exactly n bytes. The family appends the
// message to buf — straight into the packet, no scratch in between —
// and hands the result to Send. The draw takes the node's next packet
// id, so draw only for a message that will be sent, at the point it is
// sent.
func (k *Kernel) Begin(to netsim.NodeID, n int) (pkt *netsim.Packet, buf []byte) {
	pkt = k.node.Net().NewPacket(netsim.KindRouting, k.node.ID, to, wireOverhead+n)
	return pkt, pkt.PayloadArena(n)
}

// Send commits payload — the buffer Begin returned, with the message
// appended — as pkt's payload and transmits pkt on m, charging its
// length plus the framing overhead on the wire.
func (k *Kernel) Send(m netsim.Medium, pkt *netsim.Packet, payload []byte) {
	pkt.CommitPayload(payload)
	pkt.Size = wireOverhead + len(payload)
	k.node.SendOn(m, pkt.Dst, pkt)
}

// Stop halts the agent: the periodic timer, housekeeping sweep and any
// pending rearm wait are cancelled, in-flight CPU work from this life
// is invalidated, and incoming packets are ignored. Protocol state is
// left as-is for post-mortem inspection. Stop models an administrative
// shutdown; the neighbors' aging machinery times the dead router's
// routes out.
func (k *Kernel) Stop() {
	if k.gen == math.MaxUint32 {
		panic(k.name + ": agent generation wrapped")
	}
	k.stopped = true
	k.gen++
	k.node.Cancel(k.timerEv)
	k.timerEv = des.Event{}
	k.node.Cancel(k.sweepEv)
	k.sweepEv = des.Event{}
	k.node.Cancel(k.waitEv)
	k.waitEv = des.Event{}
	k.node.OnRouting = nil
}

// Crash models a power failure mid-run: the agent stops as in Stop, the
// router's volatile state — the node FIB plus whatever the family's
// ResetVolatile hook clears — is lost, and the node is marked failed so
// the data plane drops every arrival (DropNodeDown) until Restart. Call
// it from an event executing at the agent's node (internal/faults
// schedules exactly that) or from a single-threaded phase.
func (k *Kernel) Crash() {
	k.Stop()
	k.node.ClearRoutes()
	if k.hooks.ResetVolatile != nil {
		k.hooks.ResetVolatile()
	}
	k.node.SetFailed(true)
}

// Restart reboots a stopped agent: the node is restored and the receive
// hook reinstalled; the calling family then runs its own Start to arm
// timers (and, RFC 1058-style, broadcast a cold-start request so
// recovery does not wait on the neighbors' periodic timers). After
// Crash the agent comes back with whatever ResetVolatile left — empty
// tables, as a real router reboot would; after a plain Stop it keeps
// its state (an administrative restart). Stats counters accumulate
// across reboots, and the node's OnWork handler stays installed
// throughout, so work left from the previous life still releases its
// packets. It panics on a running agent.
func (k *Kernel) Restart() {
	if !k.stopped {
		panic(k.name + ": Restart on a running agent")
	}
	k.node.SetFailed(false)
	k.stopped = false
	if k.hooks.Restarted != nil {
		k.hooks.Restarted()
	}
	k.node.OnRouting = k.hooks.Receive
}
