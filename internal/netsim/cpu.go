package netsim

import "routesync/internal/ring"

// CPUConfig parameterizes a router CPU. A busy CPU stalls forwarding —
// the pre-fix NEARnet behaviour that caused the paper's Figure 1 losses:
// data packets arriving meanwhile wait in a bounded input queue, and
// overflow is dropped.
type CPUConfig struct {
	// InputQueueCap bounds the packets held while the CPU is busy. Zero
	// means no buffering: every packet arriving during a busy period is
	// dropped.
	InputQueueCap int
	// ForwardCost is seconds of CPU per forwarded packet. Zero means
	// forwarding is free once the CPU is idle. A non-zero
	// cost makes queued packets drain serially after a routing-update
	// stall, producing the RTT ramps visible in the paper's Figure 1
	// alongside the outright drops.
	ForwardCost float64
}

// WorkKind tags a CPU work record with what its completion does:
// nothing (WorkOccupy), dispatch a parked data packet (workForward), or
// hand the record to the node's OnWork handler (WorkReceive, a routing
// packet's processing; WorkPrepare, an update's preparation).
type WorkKind uint8

const (
	WorkOccupy WorkKind = iota
	workForward
	WorkReceive
	WorkPrepare
)

// Work is one CPU work item awaiting completion, a 48 B record with no
// callback. Ref and Via are a forward step's or receive's packet and
// arrival medium; Gen is the submitting agent's lifetime, so its handler
// can skip work of a previous life; Aux is the submitter's own.
type Work struct {
	Ref  PacketRef
	Via  Medium
	Aux  uint64
	Gen  uint32
	Kind WorkKind
}

// CPU models the router processor: routing-update work occupies it for
// real simulated time, serialized FIFO. Every work item completes with
// one event that drains the input queue and then runs the item's
// action.
type CPU struct {
	node      *Node
	cfg       CPUConfig
	busyUntil float64
	// in is the input queue of packets parked while forwarding is
	// stalled.
	in ring.Ring[*Packet]
	// work holds the items whose completion event has not fired yet.
	// Completions land at monotone times under increasing node keys, so
	// they fire in push order and the hoisted doneFn pops the head.
	work ring.Ring[Work]
	// forwarding counts the workForward items in work.
	forwarding int
	doneFn     func()
}

func newCPU(nd *Node, cfg CPUConfig) *CPU {
	if cfg.InputQueueCap < 0 {
		panic("netsim: negative input queue capacity")
	}
	if cfg.ForwardCost < 0 {
		panic("netsim: negative forward cost")
	}
	c := &CPU{node: nd, cfg: cfg}
	c.doneFn = func() {
		w := c.work.Pop()
		c.drain()
		switch w.Kind {
		case WorkOccupy:
		case workForward:
			c.forwarding--
			c.node.dispatch(w.Ref.Get())
			c.drain()
		default:
			c.node.OnWork(w)
		}
	}
	return c
}

// Busy reports whether the CPU is currently occupied.
func (c *CPU) Busy() bool { return c.busyUntil > c.node.Now() }

// BusyUntil returns the time the current work backlog completes.
func (c *CPU) BusyUntil() float64 { return c.busyUntil }

// Occupy appends d seconds of WorkOccupy to the CPU's FIFO backlog and
// returns the absolute time it completes. Negative d panics.
func (c *CPU) Occupy(d float64) float64 {
	c.OccupyThen(d, Work{})
	return c.busyUntil
}

// OccupyThen appends d seconds of work to the CPU's FIFO backlog and
// completes w once it has run: routing agents submit their received
// packets and timer re-arms this way, so the timer is re-armed only
// after their processing finishes (the paper's §3 step 3 coupling). The
// item completes with a single event that drains the input queue and
// then runs w's action; the drain is a no-op if further work arrived in
// the meantime (a later completion handles the queue). Completions land
// at monotone times under increasing node keys, so items complete in
// call order. Negative d panics.
func (c *CPU) OccupyThen(d float64, w Work) {
	if d < 0 {
		panic("netsim: negative CPU occupancy")
	}
	now := c.node.Now()
	if c.busyUntil < now {
		c.busyUntil = now
	}
	c.busyUntil += d
	c.work.Push(w)
	c.node.Schedule(c.busyUntil, "cpu-work-done", c.doneFn)
}

// enqueueOrDrop buffers a data packet that arrived while forwarding is
// stalled, dropping on overflow.
func (c *CPU) enqueueOrDrop(pkt *Packet) {
	if c.in.Len() >= c.cfg.InputQueueCap {
		c.node.dropHere(pkt, DropCPUBusy)
		return
	}
	c.in.Push(pkt)
}

// flushQueue drops every queued packet (node crash).
func (c *CPU) flushQueue(why DropReason) {
	for c.in.Len() > 0 {
		c.node.dropHere(c.in.Pop(), why)
	}
}

// drain dispatches buffered packets once the CPU becomes idle. With a
// zero ForwardCost the whole queue flushes instantly; otherwise each
// packet consumes CPU and the queue drains serially (and a routing
// update arriving mid-drain stalls it again).
func (c *CPU) drain() {
	if c.Busy() {
		return // more work arrived; its own drain will run later
	}
	if c.cfg.ForwardCost == 0 {
		// Dispatch only the packets queued now; one parked meanwhile
		// waits for the next drain.
		for n := c.in.Len(); n > 0; n-- {
			c.node.dispatch(c.in.Pop())
		}
		return
	}
	if c.in.Len() > 0 {
		c.forwarding++
		c.OccupyThen(c.cfg.ForwardCost, Work{Ref: c.in.Pop().Ref(), Kind: workForward})
	}
}
