package netsim

import "fmt"

// LANConfig parameterizes a broadcast segment.
type LANConfig struct {
	// Delay is the propagation time from any sender to any receiver.
	Delay float64
	// Bandwidth is the per-sender serialization rate in bits/s; 0 means
	// infinite. (The paper's model assumes zero transmission time and
	// ignores collisions; so does this LAN — it is an idealized Ethernet.)
	Bandwidth float64
	// QueueCap bounds each member's output queue; 0 uses DefaultQueueCap.
	QueueCap int
}

type lanFrame struct {
	pkt *Packet
	to  NodeID
}

// LAN is an idealized broadcast segment (an Ethernet without collisions):
// a frame transmitted by one member is received by the addressed member,
// or by every other member for Broadcast frames. Each member has its own
// transmitter and drop-tail output queue.
//
// A LAN is a single synchronization domain: all members must be owned by
// the same partition (Partition enforces this), so broadcast delivery
// never crosses a boundary.
type LAN struct {
	net     *Network
	cfg     LANConfig
	members []*Node
	tx      map[NodeID]*transmitter[lanFrame]
}

// NewLAN creates a broadcast segment over the given members (at least 2).
func (n *Network) NewLAN(members []*Node, cfg LANConfig) *LAN {
	if len(members) < 2 {
		panic("netsim: a LAN needs at least two members")
	}
	if cfg.Delay < 0 || cfg.Bandwidth < 0 || cfg.QueueCap < 0 {
		panic("netsim: invalid LAN config")
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	l := &LAN{net: n, cfg: cfg, members: append([]*Node(nil), members...), tx: make(map[NodeID]*transmitter[lanFrame])}
	for _, m := range l.members {
		if _, dup := l.tx[m.ID]; dup {
			panic(fmt.Sprintf("netsim: node %v attached to LAN twice", m))
		}
		from, st := m, &transmitter[lanFrame]{}
		st.txDone = func() {
			if st.freed() {
				l.startTx(from, st, st.queue.Pop())
			}
		}
		st.arrive = func() {
			fr := st.inflight.Pop()
			l.deliver(fr.pkt, from, fr.to)
		}
		l.tx[m.ID] = st
		m.attachMedium(l)
	}
	return l
}

// Members returns a copy of the attached nodes.
func (l *LAN) Members() []*Node { return append([]*Node(nil), l.members...) }

// NumMembers returns the number of attached nodes.
func (l *LAN) NumMembers() int { return len(l.members) }

// Member returns the i-th attached node (attachment order) without
// copying the member list — the allocation-free companion to Members
// for per-packet paths.
func (l *LAN) Member(i int) *Node { return l.members[i] }

// Transmit implements Medium: unicast to the member with id `to`, or to
// every other member when to == Broadcast. Unknown unicast destinations
// are dropped as no-route.
func (l *LAN) Transmit(pkt *Packet, from *Node, to NodeID) {
	st, ok := l.tx[from.ID]
	if !ok {
		panic(fmt.Sprintf("netsim: %v is not attached to this LAN", from))
	}
	if st.done.Pending(from) {
		if !st.enqueue(from, lanFrame{pkt: pkt, to: to}, l.cfg.QueueCap) {
			l.net.dropAt(from, DropQueueOverflow)
			l.net.releaseAt(from, pkt)
		}
		return
	}
	l.startTx(from, st, lanFrame{pkt: pkt, to: to})
}

func (l *LAN) serialization(pkt *Packet) float64 {
	if l.cfg.Bandwidth == 0 {
		return 0
	}
	return float64(pkt.Size*8) / l.cfg.Bandwidth
}

func (l *LAN) startTx(from *Node, st *transmitter[lanFrame], fr lanFrame) {
	ser := l.serialization(fr.pkt)
	sim := from.sim()
	st.inflight.Push(fr)
	sim.ScheduleKeyed(sim.Now()+ser+l.cfg.Delay, from.nextKey(), "lan-arrival", st.arrive)
	st.reserve(from, ser)
}

func (l *LAN) deliver(pkt *Packet, from *Node, to NodeID) {
	if to == Broadcast {
		for _, m := range l.members {
			if m == from {
				continue
			}
			// Each receiver gets its own pooled copy (same datagram id, own
			// TTL/payload/path) so per-node bookkeeping does not interfere;
			// the original frame's slot is released once every copy is out.
			m.receive(l.net.clonePacket(from, pkt), l)
		}
		l.net.releaseAt(from, pkt)
		return
	}
	for _, m := range l.members {
		if m.ID == to {
			m.receive(pkt, l)
			return
		}
	}
	l.net.dropAt(from, DropNoRoute)
	l.net.releaseAt(from, pkt)
}
