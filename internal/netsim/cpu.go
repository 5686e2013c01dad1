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

// CPU models the router processor: routing-update work occupies it for
// real simulated time, serialized FIFO. Every work item completes with
// one event that drains the input queue and then runs the item's
// callback (a no-op for Occupy).
type CPU struct {
	node      *Node
	cfg       CPUConfig
	busyUntil float64
	// queue[qhead:] is the input queue of packets parked while forwarding
	// is stalled. The head index (instead of re-slicing from the front)
	// keeps the backing array's capacity, so enqueue/drain cycles stop
	// allocating once the queue has reached its high-water size.
	queue []*Packet
	qhead int
	// scratch is the drain double buffer: drain swaps it with queue so
	// dispatching can re-enter enqueueOrDrop without aliasing, and both
	// backing arrays are reused forever.
	scratch []*Packet
	// steps holds packets popped for per-packet ForwardCost work whose
	// cpu-work-done event has not fired yet (FIFO: completions are
	// scheduled in pop order at monotone times).
	steps ring.Ring[*Packet]
	// thens holds the callbacks of work items whose completion event has
	// not fired yet. Completions land at monotone times under increasing
	// node keys, so they fire in push order and the hoisted thenFn pops
	// the head.
	thens  ring.Ring[func()]
	thenFn func() // hoisted completion of every item: drain, then callback
	stepFn func() // hoisted per-packet forward-cost completion
}

func newCPU(nd *Node, cfg CPUConfig) *CPU {
	if cfg.InputQueueCap < 0 {
		panic("netsim: negative input queue capacity")
	}
	if cfg.ForwardCost < 0 {
		panic("netsim: negative forward cost")
	}
	c := &CPU{node: nd, cfg: cfg}
	c.thenFn = func() {
		fn := c.thens.Pop()
		c.drain()
		fn()
	}
	c.stepFn = func() {
		pkt := c.steps.Pop()
		c.node.dispatch(pkt)
		c.drain()
	}
	return c
}

// Busy reports whether the CPU is currently occupied.
func (c *CPU) Busy() bool { return c.busyUntil > c.node.Now() }

// BusyUntil returns the time the current work backlog completes.
func (c *CPU) BusyUntil() float64 { return c.busyUntil }

// nop is the completion callback of Occupy's work items.
var nop = func() {}

// Occupy appends d seconds of work to the CPU's FIFO backlog and returns
// the absolute time this work item completes. Negative d panics. No
// production path calls it; the netsim and workload tests use it to
// stall a router.
func (c *CPU) Occupy(d float64) float64 {
	c.OccupyThen(d, nop)
	return c.busyUntil
}

// OccupyThen is Occupy plus a completion callback, used by routing agents
// to re-arm their timers only after their processing finishes (the
// paper's §3 step 3 coupling). The item completes with a single event
// that drains the input queue and then runs fn; the drain is a no-op if
// further work arrived in the meantime (a later completion handles the
// queue). Completions land at monotone times under increasing node
// keys, so callbacks run in call order. Negative d panics.
func (c *CPU) OccupyThen(d float64, fn func()) {
	if d < 0 {
		panic("netsim: negative CPU occupancy")
	}
	now := c.node.Now()
	if c.busyUntil < now {
		c.busyUntil = now
	}
	c.busyUntil += d
	c.thens.Push(fn)
	c.node.Schedule(c.busyUntil, "cpu-work-done", c.thenFn)
}

// qlen returns the current input-queue occupancy.
func (c *CPU) qlen() int { return len(c.queue) - c.qhead }

// enqueueOrDrop buffers a data packet that arrived while forwarding is
// stalled, dropping on overflow.
func (c *CPU) enqueueOrDrop(pkt *Packet) {
	if c.qlen() >= c.cfg.InputQueueCap {
		c.node.dropHere(pkt, DropCPUBusy)
		return
	}
	c.queue = append(c.queue, pkt)
}

// flushQueue drops every queued packet (node crash), keeping the backing
// array's capacity for the node's next life.
func (c *CPU) flushQueue(why DropReason) {
	for i := c.qhead; i < len(c.queue); i++ {
		pkt := c.queue[i]
		c.queue[i] = nil
		c.node.dropHere(pkt, why)
	}
	c.queue = c.queue[:0]
	c.qhead = 0
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
		// Swap to the scratch buffer before dispatching: packets injected
		// by delivery handlers may re-enter enqueueOrDrop, which must not
		// append to the slice being iterated.
		q := c.queue[c.qhead:]
		c.queue, c.scratch = c.scratch[:0], c.queue
		c.qhead = 0
		for i, pkt := range q {
			q[i] = nil
			c.node.dispatch(pkt)
		}
		return
	}
	if c.qlen() == 0 {
		return
	}
	pkt := c.queue[c.qhead]
	c.queue[c.qhead] = nil
	c.qhead++
	if c.qhead == len(c.queue) {
		c.queue = c.queue[:0]
		c.qhead = 0
	}
	c.steps.Push(pkt)
	c.OccupyThen(c.cfg.ForwardCost, c.stepFn)
}
