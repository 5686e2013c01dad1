package netsim

import (
	"fmt"

	"routesync/internal/ring"
)

// LinkConfig parameterizes a point-to-point link.
type LinkConfig struct {
	// Delay is the one-way propagation time in seconds. On links that
	// cross partition boundaries it must be positive: it is the lookahead
	// that lets logical processes advance in parallel.
	Delay float64
	// Bandwidth is bits per second; 0 means infinite (no serialization).
	Bandwidth float64
	// QueueCap bounds each direction's output queue in packets while the
	// transmitter serializes; 0 uses DefaultQueueCap.
	QueueCap int
}

// DefaultQueueCap is the per-direction output queue bound when
// LinkConfig.QueueCap is zero.
const DefaultQueueCap = 64

// Link is a full-duplex point-to-point link: independent transmitter,
// drop-tail queue, serialization and propagation per direction.
type Link struct {
	net  *Network
	cfg  LinkConfig
	ends [2]*Node
	tx   [2]transmitter[*Packet]
	// down is the per-endpoint view of the link state, indexed like
	// ends. Each endpoint's view is only ever written by an event
	// executing at that endpoint (or during single-threaded setup), so a
	// link crossing a partition boundary never shares mutable state
	// between logical processes. FailAt/RestoreAt schedule one same-time
	// keyed event per end, which keeps flapped runs bit-identical for any
	// partition count.
	down [2]bool
}

// SetDown marks the link failed (true) or restored (false) at both ends
// at once. Packets in flight or transmitted while the link is down are
// dropped — the failure model behind the routing protocol's convergence
// tests, which are its only callers (routing, linkstate and workload).
//
// SetDown is a setup helper: call it only from single-threaded phases —
// before the run starts, or between RunUntil calls, when every logical
// process sits at a barrier. For transitions during a run use
// FailAt/RestoreAt, which flip each endpoint's view from a keyed event
// on the endpoint's own logical process; a direct mid-window SetDown on
// a cross-partition link is a data race and breaks the K-run
// bit-identity contract.
func (l *Link) SetDown(down bool) {
	l.down[0] = down
	l.down[1] = down
	l.net.bumpTopology()
}

// Down reports the link's failure state: true if either endpoint
// considers the link failed. Outside a transition instant both views
// agree.
func (l *Link) Down() bool { return l.down[0] || l.down[1] }

// FailAt schedules the link to fail at absolute time t, and RestoreAt
// to come back up. Each schedules one keyed event per endpoint at the
// same instant, so every logical process flips its own view itself and
// the transition is deterministic under any partitioning. Transitions
// must be scheduled after Partition (like all runtime events) and may
// be freely interleaved to model flapping.
func (l *Link) FailAt(t float64)    { l.scheduleDown(t, true) }
func (l *Link) RestoreAt(t float64) { l.scheduleDown(t, false) }

func (l *Link) scheduleDown(t float64, down bool) {
	label := "link-restore"
	if down {
		label = "link-fail"
	}
	for d := range l.ends {
		d := d
		l.ends[d].Schedule(t, label, func() {
			l.down[d] = down
			l.net.bumpTopology()
		})
	}
}

// Endpoints returns the link's two endpoint nodes in construction order.
func (l *Link) Endpoints() [2]*Node { return l.ends }

// transmitter is one sender's side of a medium: a serial transmitter
// with a drop-tail output queue (one per link direction, one per LAN
// member). T is what the queue and the wire carry.
type transmitter[T any] struct {
	// done reserves the tx-done of the transmission on the wire. The
	// event is queued only when a packet waits in the output queue, or
	// when serialization takes no time; most tx-dones find an empty queue
	// and are never queued. The handler clears it.
	done Reservation
	// queue is the drop-tail output queue. Its ring grows to the peak
	// backlog, bounded by the queue limit, and is reused from then on.
	queue ring.Ring[T]
	// inflight holds serialized packets in propagation order; arrive pops
	// the head. Arrival times are monotone per transmitter (it is serial),
	// so FIFO order is arrival order and the hoisted arrival callback
	// needs no per-packet closure.
	inflight ring.Ring[T]
	// txDone frees the transmitter and pops the queue; arrive delivers
	// the head in-flight packet. Both are hoisted so each packet
	// schedules them without allocating a fresh closure.
	txDone func()
	arrive func()
}

// enqueue parks v behind the busy transmitter, queueing its tx-done when
// v is the first to wait. It reports false, queueing nothing, when the
// output queue is full.
func (t *transmitter[T]) enqueue(from *Node, v T, limit int) bool {
	if t.queue.Len() >= limit {
		return false
	}
	if !t.done.Queued() {
		t.done.Queue(from, "tx-done", t.txDone)
	}
	t.queue.Push(v)
	return true
}

// reserve reserves the tx-done of a transmission starting now and
// lasting ser seconds, queueing it at once when packets already wait
// (the pop path). Its key is drawn after the arrival's, where a
// scheduled tx-done would draw it.
func (t *transmitter[T]) reserve(from *Node, ser float64) {
	t.done.Reserve(from, ser, "tx-done", t.txDone)
	if t.queue.Len() > 0 && !t.done.Queued() {
		t.done.Queue(from, "tx-done", t.txDone)
	}
}

// freed is the head of the tx-done handler: it clears the reservation
// and reports whether a packet waits to go next.
func (t *transmitter[T]) freed() bool {
	t.done = Reservation{}
	return t.queue.Len() > 0
}

// Connect creates a link between a and b. It panics if a == b.
func (n *Network) Connect(a, b *Node, cfg LinkConfig) *Link {
	if a == b {
		panic("netsim: cannot link a node to itself")
	}
	if cfg.Delay < 0 || cfg.Bandwidth < 0 || cfg.QueueCap < 0 {
		panic("netsim: invalid link config")
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	l := &Link{net: n, cfg: cfg, ends: [2]*Node{a, b}}
	for d := range l.tx {
		d := d
		dst := l.ends[1-d]
		l.tx[d].txDone = func() {
			if st := &l.tx[d]; st.freed() {
				l.startTx(d, st.queue.Pop())
			}
		}
		l.tx[d].arrive = func() {
			pkt := l.tx[d].inflight.Pop()
			l.deliverTo(dst, pkt)
		}
	}
	a.attachMedium(l)
	b.attachMedium(l)
	return l
}

// deliverTo completes propagation at the receiving end. It runs on the
// receiver's simulator (the boundary path injects it there), so it
// consults the receiver's view of the link state.
func (l *Link) deliverTo(dst *Node, pkt *Packet) {
	if l.down[l.dir(dst)] {
		l.net.dropAt(dst, DropLinkDown)
		l.net.releaseAt(dst, pkt)
		return
	}
	dst.receive(pkt, l)
}

// Peer returns the node at the other end from nd. It panics if nd is not
// an endpoint.
func (l *Link) Peer(nd *Node) *Node {
	switch nd {
	case l.ends[0]:
		return l.ends[1]
	case l.ends[1]:
		return l.ends[0]
	default:
		panic(fmt.Sprintf("netsim: %v is not an endpoint of this link", nd))
	}
}

func (l *Link) dir(from *Node) int {
	switch from {
	case l.ends[0]:
		return 0
	case l.ends[1]:
		return 1
	default:
		panic(fmt.Sprintf("netsim: %v is not an endpoint of this link", from))
	}
}

// Transmit implements Medium. The link-layer destination is implicit (the
// other end); `to` is accepted for interface symmetry and ignored except
// that Broadcast is also valid.
func (l *Link) Transmit(pkt *Packet, from *Node, _ NodeID) {
	d := l.dir(from)
	if l.down[d] {
		l.net.dropAt(from, DropLinkDown)
		l.net.releaseAt(from, pkt)
		return
	}
	st := &l.tx[d]
	if st.done.Pending(from) {
		if !st.enqueue(from, pkt, l.cfg.QueueCap) {
			l.net.dropAt(from, DropQueueOverflow)
			l.net.releaseAt(from, pkt)
		}
		return
	}
	l.startTx(d, pkt)
}

func (l *Link) serialization(pkt *Packet) float64 {
	if l.cfg.Bandwidth == 0 {
		return 0
	}
	return float64(pkt.Size*8) / l.cfg.Bandwidth
}

func (l *Link) startTx(d int, pkt *Packet) {
	st := &l.tx[d]
	src := l.ends[d]
	dst := l.ends[1-d]
	sim := src.sim()
	ser := l.serialization(pkt)
	// Arrival at the far end after serialization + propagation. The key
	// is drawn from the sender *before* the tx-done key in both branches,
	// so the key sequence is identical whether or not the link crosses a
	// partition boundary.
	arriveAt := sim.Now() + ser + l.cfg.Delay
	arriveKey := src.nextKey()
	if dst.part == src.part {
		st.inflight.Push(pkt)
		sim.ScheduleKeyed(arriveAt, arriveKey, "link-arrival", st.arrive)
	} else {
		// Cross-partition: hand the arrival to the receiver's logical
		// process at the next window barrier. The key travels with it, so
		// the receiver orders it exactly as a sequential run would.
		src.part.send(boundaryEvent{at: arriveAt, key: arriveKey, pkt: pkt, dst: dst, link: l})
	}
	// Transmitter frees after serialization.
	st.reserve(src, ser)
}
