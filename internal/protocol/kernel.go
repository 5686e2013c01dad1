// Package protocol is the protocol-agnostic agent kernel: the shared
// lifecycle machinery every routing-protocol family on the netsim
// substrate needs — periodic/triggered timer arming with jitter
// policies, the CPU-model pending FIFO holding received packets by
// generation-checked handle, wire-encoding scratch, Crash/Restart with
// cold start, and zero-cost observer hooks.
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
	"routesync/internal/des"
	"routesync/internal/jitter"
	"routesync/internal/netsim"
	"routesync/internal/rng"
)

// TimerMode selects when the periodic timer is re-armed, mirroring
// internal/periodic's TimerReset for the packet-level implementations.
type TimerMode int

const (
	// TimerResetAfterProcessing re-arms the timer only once the CPU has
	// finished preparing the router's own update and processing any
	// updates that arrived meanwhile — the paper's §3 model and the
	// behaviour of the implementations it cites ([Li93]).
	TimerResetAfterProcessing TimerMode = iota
	// TimerResetOnExpiry re-arms relative to the previous expiration,
	// regardless of processing time (the RFC 1058 suggestion).
	TimerResetOnExpiry
)

// FIFO is a growable queue with a head index: pops keep the backing
// array, so steady-state push/pop cycles never allocate. The kernel uses
// it for work parked behind the CPU-occupancy model, and protocol
// strategies reuse it for their own pending queues (per-peer MRAI
// batches, flood backlogs).
type FIFO[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued items.
func (f *FIFO[T]) Len() int { return len(f.buf) - f.head }

// Push appends v.
func (f *FIFO[T]) Push(v T) { f.buf = append(f.buf, v) }

// Pop removes and returns the head; it panics on an empty FIFO.
func (f *FIFO[T]) Pop() T {
	v := f.buf[f.head]
	var zero T
	f.buf[f.head] = zero
	f.head++
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	}
	return v
}

// recvItem is one received packet awaiting CPU processing. The agent
// owns the packet (netsim transferred it at OnRouting) and the kernel
// holds it by generation-checked handle until the work completes, then
// releases it. Aux carries protocol-decoded header fields (the
// link-state family caches origin/seq, path-vector the peer) so the
// completion needn't re-parse.
type recvItem[A any] struct {
	ref netsim.PacketRef
	via netsim.Medium
	gen uint64
	aux A
}

// prepItem is one pending update-preparation completion.
type prepItem struct {
	resetTimer bool
	gen        uint64
}

// Hooks are the protocol strategy callbacks a family plugs into its
// kernel. Fire, Receive and Process are required; the rest are optional.
type Hooks[A any] struct {
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
	// generation current when it was queued). The kernel releases the
	// packet when Process returns; implementations keeping payload bytes
	// must copy them.
	Process func(pkt *netsim.Packet, via netsim.Medium, aux A)
	// Sweep runs at each housekeeping expiration (route aging, LSA
	// MaxAge, stale-path GC); the kernel re-schedules the next sweep.
	Sweep func()
	// TimerArmed observes every periodic re-arm with the absolute expiry
	// time; nil costs one predictable branch per re-arm.
	TimerArmed func(resetAt, expiresAt float64)
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
	// Mode selects the re-arm rule; the zero value is the paper's.
	Mode TimerMode
	// TimerLabel, RearmLabel and SweepLabel name the kernel's events
	// (TimerLabel is per-agent — one fmt.Sprintf per agent, not per
	// re-arm).
	TimerLabel string
	RearmLabel string
	SweepLabel string
	// SweepEvery is the housekeeping interval; zero disables the sweep.
	SweepEvery float64
}

// Kernel owns one agent's protocol-agnostic lifecycle. The type
// parameter A is the aux data carried alongside CPU-queued packets.
type Kernel[A any] struct {
	node *netsim.Node
	r    *rng.Source
	jit  jitter.Policy
	mode TimerMode
	name string

	timerLabel string
	rearmLabel string
	sweepLabel string
	sweepEvery float64

	timerEv    des.Event
	sweepEv    des.Event
	waitEv     des.Event
	lastExpiry float64
	stopped    bool
	// gen counts agent lifetimes: Stop bumps it, and CPU-completion
	// callbacks issued before the stop compare their captured gen so a
	// reboot (Crash/Restart) never processes work from a previous life.
	gen         uint64
	timerResets uint64

	// Hoisted closures: one allocation per agent lifetime, not per
	// event. timerFn is the onTimer method value armAt re-schedules
	// every period.
	rearmFn func()
	sweepFn func()
	timerFn func()
	procFn  func()
	prepFn  func()

	// recvQ/prepQ park in-flight CPU work; CPU completions are FIFO
	// (each OccupyThen lands strictly later than the previous), so the
	// hoisted procFn/prepFn pop their queue heads in scheduling order.
	recvQ FIFO[recvItem[A]]
	prepQ FIFO[prepItem]

	// Enc is the wire-encoding scratch buffer: families encode with
	// EncodeInto(k.Enc[:0], ...) and store the result back, so
	// steady-state update encoding allocates nothing once the buffer
	// reaches its high-water size (SetPayload copies the bytes into the
	// packet's pooled payload arena).
	Enc []byte

	hooks Hooks[A]
}

// New creates a kernel on cfg.Node and installs hooks.Receive as the
// node's routing handler. Call StartTimer/ScheduleSweep (usually from
// the family's Start) to begin. It panics on an invalid configuration.
func New[A any](cfg Config, hooks Hooks[A]) *Kernel[A] {
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
	k := &Kernel[A]{
		node:       cfg.Node,
		r:          rng.New(cfg.Seed),
		jit:        cfg.Jitter,
		mode:       cfg.Mode,
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
	k.procFn = func() {
		it := k.recvQ.Pop()
		pkt := it.ref.Get()
		if k.gen == it.gen {
			k.hooks.Process(pkt, it.via, it.aux)
		}
		k.node.ReleasePacket(pkt)
	}
	k.prepFn = func() {
		it := k.prepQ.Pop()
		if it.resetTimer && k.gen == it.gen {
			k.rearmWhenIdle()
		}
	}
	cfg.Node.OnRouting = hooks.Receive
	return k
}

// Node returns the agent's node.
func (k *Kernel[A]) Node() *netsim.Node { return k.node }

// RNG returns the kernel's private random stream — the one the jitter
// policy draws from. Families needing extra randomness (per-peer MRAI
// jitter) share it so an agent's draw sequence stays a pure function of
// its seed.
func (k *Kernel[A]) RNG() *rng.Source { return k.r }

// Gen returns the current lifetime generation. Completions captured
// under an older generation are stale; see Stop.
func (k *Kernel[A]) Gen() uint64 { return k.gen }

// Stopped reports whether the agent is stopped.
func (k *Kernel[A]) Stopped() bool { return k.stopped }

// TimerResets returns the number of periodic-timer arms over the
// agent's lifetimes.
func (k *Kernel[A]) TimerResets() uint64 { return k.timerResets }

// PendingPackets returns the number of received packets the kernel is
// holding while their processing cost drains through the CPU model —
// packets the agent owns but has not released yet. Leak audits add it
// to netsim's parked counts.
func (k *Kernel[A]) PendingPackets() int { return k.recvQ.Len() }

// StartTimer arms the first periodic expiration startOffset seconds
// from now. A shared startOffset of 0 across agents models the
// post-restart synchronized state; drawing offsets from U[0, Period]
// models the unsynchronized state.
func (k *Kernel[A]) StartTimer(startOffset float64) {
	if startOffset < 0 {
		panic(k.name + ": negative start offset")
	}
	now := k.node.Now()
	k.lastExpiry = now + startOffset
	k.armAt(now + startOffset)
}

// ScheduleSweep arms the next housekeeping sweep (a no-op when the
// configuration disables sweeping).
func (k *Kernel[A]) ScheduleSweep() {
	if k.stopped || k.sweepEvery <= 0 {
		return
	}
	k.sweepEv = k.node.After(k.sweepEvery, k.sweepLabel, k.sweepFn)
}

func (k *Kernel[A]) armAt(at float64) {
	k.timerEv = k.node.Schedule(at, k.timerLabel, k.timerFn)
	k.timerResets++
	if k.hooks.TimerArmed != nil {
		k.hooks.TimerArmed(k.node.Now(), at)
	}
}

// onTimer fires at a periodic timer expiration.
func (k *Kernel[A]) onTimer() {
	if k.stopped {
		return
	}
	k.lastExpiry = k.node.Now()
	k.hooks.Fire()
}

// FinishSend charges cost seconds of update-preparation CPU and, when
// resetTimer is set, re-arms the periodic timer once the CPU backlog
// (the router's own preparation plus any incoming updates that arrived
// during it) drains — the coupling mechanism of the paper (§3 step 3).
// Without a CPU (or with zero cost) the re-arm happens synchronously.
func (k *Kernel[A]) FinishSend(cost float64, resetTimer bool) {
	if k.node.CPU != nil && cost > 0 {
		k.prepQ.Push(prepItem{resetTimer: resetTimer, gen: k.gen})
		k.node.CPU.OccupyThen(cost, k.prepFn)
		return
	}
	if resetTimer {
		k.rearmWhenIdle()
	}
}

// Rearm re-arms the periodic timer once the CPU backlog drains —
// exposed for strategies that re-arm outside the FinishSend path.
func (k *Kernel[A]) Rearm() { k.rearmWhenIdle() }

func (k *Kernel[A]) rearmWhenIdle() {
	if k.stopped {
		return
	}
	if k.node.CPU != nil && k.node.CPU.Busy() {
		k.waitEv = k.node.Schedule(k.node.CPU.BusyUntil(), k.rearmLabel, k.rearmFn)
		return
	}
	k.node.Cancel(k.timerEv)
	delay := k.jit.Delay(k.r, int(k.node.ID))
	now := k.node.Now()
	var at float64
	switch k.mode {
	case TimerResetOnExpiry:
		at = k.lastExpiry + delay
		if at < now {
			at = now
		}
	default:
		at = now + delay
	}
	k.armAt(at)
}

// Process routes an arrived packet through the CPU model: with a CPU
// and a positive cost the packet parks on the pending FIFO — held by
// generation-checked handle — and hooks.Process runs when the cost
// drains; otherwise it runs synchronously. Either way the kernel
// releases the packet slot when processing completes.
func (k *Kernel[A]) Process(pkt *netsim.Packet, via netsim.Medium, aux A, cost float64) {
	if k.node.CPU != nil && cost > 0 {
		k.recvQ.Push(recvItem[A]{ref: pkt.Ref(), via: via, gen: k.gen, aux: aux})
		k.node.CPU.OccupyThen(cost, k.procFn)
		return
	}
	k.hooks.Process(pkt, via, aux)
	k.node.ReleasePacket(pkt)
}

// Send transmits payload as a routing-kind packet on m toward to
// (netsim.Broadcast for every member), with the 28-byte UDP/IP-style
// framing overhead every family charges. SetPayload copies the bytes
// into the packet's pooled arena, so the caller's scratch may be reused
// immediately.
func (k *Kernel[A]) Send(m netsim.Medium, to netsim.NodeID, payload []byte) {
	pkt := k.node.Net().NewPacket(netsim.KindRouting, k.node.ID, to, 28+len(payload))
	pkt.SetPayload(payload)
	k.node.SendOn(m, to, pkt)
}

// Stop halts the agent: the periodic timer, housekeeping sweep and any
// pending rearm wait are cancelled, in-flight CPU work from this life
// is invalidated, and incoming packets are ignored. Protocol state is
// left as-is for post-mortem inspection. Stop models an administrative
// shutdown; the neighbors' aging machinery times the dead router's
// routes out.
func (k *Kernel[A]) Stop() {
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
func (k *Kernel[A]) Crash() {
	k.Stop()
	for dst := range k.node.FIB {
		delete(k.node.FIB, dst)
	}
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
// across reboots, and observer hooks stay installed. It panics on a
// running agent.
func (k *Kernel[A]) Restart() {
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
