package netsim

import "fmt"

// This file implements the pooled packet lifecycle: packets are slots
// drawn from a per-logical-process free list and returned to the free
// list of whichever logical process terminates them, exactly the slot
// pool + generation handle idiom internal/des uses for events.
//
// Ownership rules (documented for users in the README's "packet
// lifecycle & ownership" section):
//
//   - Network.NewPacket draws a slot from the pool of the creating
//     node's logical process (the network's own pool while
//     unpartitioned). The creator owns the packet.
//   - Transmitting a packet (Medium.Transmit, Node.SendOn,
//     Network.Inject) transfers ownership to the simulator, which either
//     drops it (every DropReason sink releases the slot) or delivers it.
//   - Local delivery lends the packet to the OnDeliver callback for the
//     duration of the call; the simulator releases the slot when the
//     callback returns. Handlers that need payload bytes or the Hops
//     path beyond the callback must copy them.
//   - Routing delivery (Kind == KindRouting with OnRouting installed)
//     transfers ownership to the routing agent, which releases the slot
//     once the update is processed — possibly later in simulated time,
//     after the CPU-occupancy model has charged the processing cost.
//
// Slots carry a generation counter bumped on every release. A PacketRef
// captures (slot, generation) and panics on access after the slot was
// released or recycled, so use-after-release and double-release are
// deterministic panics in tests instead of silent corruption.
//
// Free lists are confined to their logical process: NewPacket pops the
// creating LP's list, and a terminal sink pushes onto the list of the LP
// executing the sink. A packet that crossed a partition boundary and was
// terminated by the receiving LP is parked on that LP's foreign list and
// repatriated to its home pool's free list at the next window barrier —
// free lists never need locks, and one-way flows (e.g. valley-free BGP
// export) cannot drain a source pool into a structural alloc floor. The
// window barrier's happens-before edges make the migration race-free.

// pktPool is one logical process's packet slot pool.
type pktPool struct {
	free []*Packet
	// foreign holds released slots whose home is another pool; the
	// coordinator repatriates them at window barriers.
	foreign []*Packet
	// created counts slots this pool allocated from the heap; the
	// network-wide live-packet count is Σ created − Σ (free + foreign),
	// which stays correct while slots await repatriation.
	created uint64
}

func (pp *pktPool) get() *Packet {
	var pkt *Packet
	if k := len(pp.free); k > 0 {
		pkt = pp.free[k-1]
		pp.free[k-1] = nil
		pp.free = pp.free[:k-1]
		pkt.live = true
	} else {
		pp.created++
		pkt = &Packet{pooled: true, live: true, home: pp}
	}
	return pkt
}

func (pp *pktPool) put(pkt *Packet) {
	if pkt.home == pp || pkt.home == nil {
		pp.free = append(pp.free, pkt)
		return
	}
	pp.foreign = append(pp.foreign, pkt)
}

// repatriate returns every foreign slot to its home pool's free list.
// Only the partition coordinator calls it, between windows, when no
// logical process is running.
func (pp *pktPool) repatriate() {
	for i, pkt := range pp.foreign {
		pkt.home.free = append(pkt.home.free, pkt)
		pp.foreign[i] = nil
	}
	pp.foreign = pp.foreign[:0]
}

// poolFor returns the packet pool of the logical process executing at nd:
// the owning partition's pool when the network is partitioned, the
// network's otherwise. It mirrors countersFor.
func (n *Network) poolFor(nd *Node) *pktPool {
	if nd.part != nil {
		return &nd.part.pool
	}
	return &n.pool
}

// releaseAt returns pkt to the pool of the logical process executing at
// nd — the terminal-sink primitive behind every drop, delivery and
// agent release. Packets not drawn from a pool (tests building Packet
// literals) pass through untouched.
func (n *Network) releaseAt(nd *Node, pkt *Packet) {
	if !pkt.pooled {
		return
	}
	if !pkt.live {
		panic(fmt.Sprintf("netsim: double release of packet %d", pkt.ID))
	}
	pkt.live = false
	pkt.gen++
	// Drop payload and path references now: the slot may sit on the free
	// list for a while, and the backing arrays must not pin user data.
	// payloadBuf is retained — it is the slot's payload arena, sized by
	// its high-water mark.
	pkt.Payload = nil
	pkt.Hops = pkt.Hops[:0]
	n.poolFor(nd).put(pkt)
}

// ReleasePacket returns a packet this node's logical process owns to the
// packet pool. Routing agents call it when they finish with an update;
// tests exercising the pool directly may too. Releasing a packet twice,
// or touching it through a stale PacketRef afterwards, panics.
func (nd *Node) ReleasePacket(pkt *Packet) { nd.net.releaseAt(nd, pkt) }

// SetPayload copies b into the packet's retained payload arena and
// points Payload at the copy. Protocol encoders use it so one scratch
// encode buffer can serve every outgoing packet: the bytes are copied
// into the slot, whose arena grows to the high-water payload size and
// is then reused for the slot's whole lifetime — no per-packet
// allocation at steady state. Assigning Payload directly remains valid
// for callers that manage their own buffers.
func (p *Packet) SetPayload(b []byte) {
	p.payloadBuf = append(p.payloadBuf[:0], b...)
	p.Payload = p.payloadBuf
}

// PacketRef is a generation-counted handle to a pooled packet, the
// packet analogue of des.Event: holding one does not keep the slot
// alive, and Get panics deterministically if the slot was released (and
// possibly recycled) since the handle was taken.
type PacketRef struct {
	pkt *Packet
	gen uint32
}

// Ref captures a handle to the packet's current lifetime.
func (p *Packet) Ref() PacketRef { return PacketRef{pkt: p, gen: p.gen} }

// Live reports whether the handle still refers to a live packet.
func (r PacketRef) Live() bool {
	return r.pkt != nil && (!r.pkt.pooled || (r.pkt.live && r.pkt.gen == r.gen))
}

// Get returns the referenced packet, panicking if the handle is stale —
// the slot was released, or released and reissued to a different packet.
func (r PacketRef) Get() *Packet {
	if r.pkt == nil {
		panic("netsim: Get on zero PacketRef")
	}
	if r.pkt.pooled && (!r.pkt.live || r.pkt.gen != r.gen) {
		panic("netsim: stale PacketRef: packet was released")
	}
	return r.pkt
}

// clonePacket draws a slot from the pool at nd and copies pkt into it:
// scalar fields, payload bytes (into the clone's own arena) and the
// recorded path. LAN broadcast uses it to give every receiver a private
// copy with independent TTL and bookkeeping; the clone keeps the
// original's ID (it is the same datagram) and draws no per-node
// sequence numbers, so cloning is invisible to the determinism keys.
func (n *Network) clonePacket(nd *Node, pkt *Packet) *Packet {
	cp := n.poolFor(nd).get()
	cp.ID = pkt.ID
	cp.Kind = pkt.Kind
	cp.Src = pkt.Src
	cp.Dst = pkt.Dst
	cp.Size = pkt.Size
	cp.TTL = pkt.TTL
	cp.Created = pkt.Created
	cp.Seq = pkt.Seq
	cp.RecordRoute = pkt.RecordRoute
	cp.Hops = append(cp.Hops[:0], pkt.Hops...)
	if pkt.Payload != nil {
		cp.SetPayload(pkt.Payload)
	} else {
		cp.Payload = nil
	}
	return cp
}

// LivePackets returns the number of pooled packets currently drawn and
// not yet released, summed over every logical process's pool. At a
// quiescent point (after RunUntil returns) every live packet must be
// parked somewhere — a transmit queue, an in-flight window, a CPU input
// queue, a boundary outbox or arrival, or a routing agent's pending
// queue — which is exactly what the leak tests assert against
// ParkedPackets.
func (n *Network) LivePackets() int {
	created, free := n.pool.created, len(n.pool.free)+len(n.pool.foreign)
	for _, p := range n.parts {
		created += p.pool.created
		free += len(p.pool.free) + len(p.pool.foreign)
	}
	return int(created) - free
}

// ParkedPackets counts the packets currently held inside the simulator's
// own structures: link and LAN transmit queues and in-flight windows,
// CPU input queues and forward-cost steps, and the partition boundary
// machinery (outboxes and scheduled-but-undelivered arrivals). Together
// with the agents' pending counts it accounts for every live packet at
// a quiescent point.
func (n *Network) ParkedPackets() int {
	total := 0
	seen := make(map[Medium]bool)
	for _, nd := range n.nodes {
		if nd.CPU != nil {
			total += nd.CPU.qlen() + nd.CPU.steps.len()
		}
		for _, m := range nd.media {
			if seen[m] {
				continue
			}
			seen[m] = true
			switch med := m.(type) {
			case *Link:
				for d := range med.tx {
					st := &med.tx[d]
					total += st.qlen() + st.inflight.len()
				}
			case *LAN:
				for _, st := range med.tx {
					total += st.qlen() + st.inflight.len()
				}
			}
		}
	}
	for _, p := range n.parts {
		total += len(p.outbox) + p.arrLive
	}
	return total
}
