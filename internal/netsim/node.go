package netsim

import (
	"fmt"
	"math"
	"slices"

	"routesync/internal/des"
	"routesync/internal/rng"
)

// Broadcast is the link-layer destination meaning "every member of the
// medium" (used for routing updates on a LAN).
const Broadcast NodeID = -1

// Medium is anything a node can transmit packets on: a point-to-point
// Link or a broadcast LAN segment.
type Medium interface {
	// Transmit sends pkt from the given node toward the link-layer
	// destination `to` (Broadcast for all members). The medium applies
	// serialization, queueing and propagation before delivering to the
	// receiving node(s).
	Transmit(pkt *Packet, from *Node, to NodeID)
}

// Egress is a forwarding decision: which medium to send on and the
// link-layer next hop.
type Egress struct {
	Via     Medium
	NextHop NodeID
}

// fibEntry is one forwarding-table entry, 12 bytes with no pointer: via
// indexes the node's attached media, which only ever grow, so an index
// stays valid for the node's lifetime. Ids are 32-bit because the
// distance-vector wire carries them so: every destination and next hop
// an update can name fits.
type fibEntry struct {
	dst, next uint32
	via       uint16
}

// Node is a host or router. Hosts have nil CPU (forwarding and delivery
// are instantaneous); routers carry a CPU whose busy periods can stall
// forwarding (see CPUConfig).
type Node struct {
	ID   NodeID
	Name string
	net  *Network

	// fib is the forwarding table, final destination to egress: one
	// destination-sorted array the garbage collector never scans.
	// Routing agents (or static topology setup) program it with
	// SetRoute, ClearRoute, ClearRoutes and RetainRoutes; forwarding
	// reads it with Route. Only events executing at this node (or
	// single-threaded phases) write it, and only this node's forwarding
	// path reads it, so it is owned by the node's logical process and
	// needs no locking under partitioning.
	fib []fibEntry

	// CPU is the router processor model, nil for infinitely fast nodes.
	CPU *CPU

	// OnRouting receives routing packets addressed to (or broadcast at)
	// this node, along with the medium they arrived on (for split
	// horizon and next-hop bookkeeping). Routing agents install it. If
	// nil, routing packets are counted delivered and discarded.
	OnRouting func(*Packet, Medium)

	// OnWork completes the CPU's WorkReceive and WorkPrepare items,
	// popped in submission order once their cost has run. The agent
	// kernel installs it for the node's lifetime, so items a crashed
	// agent left behind still release their packets.
	OnWork func(Work)

	// OnDeliver receives non-routing packets whose Dst is this node,
	// keyed by packet kind; missing kinds are counted delivered and
	// discarded.
	OnDeliver map[Kind]func(*Packet)

	// LossProb is an independent per-arrival random loss probability,
	// modelling background noise (the "little blips ... randomly spread
	// along the time axis" in the paper's Figure 3).
	LossProb float64

	media []Medium
	stats nodeCount

	// failed marks a crashed node: every arriving packet is dropped as
	// DropNodeDown until the node is restored. Owned by the node's
	// logical process — only events executing at this node (or
	// single-threaded phases) may flip it.
	failed bool

	// rnd is the node's private random stream (per-arrival loss draws).
	rnd *rng.Source
	// part is the owning logical process, nil while unpartitioned.
	part *partition
	// evSeq numbers events this node originates; with the node id it
	// forms the des scheduling key, so the same-timestamp fire order is
	// (origin node, origin sequence) under any partitioning.
	evSeq uint64
	// pktSeq numbers packets created at this node (see NewPacket).
	pktSeq uint64
}

// nodeCount is the node's internal accounting block; drop reasons are a
// fixed array (see dropIndex) so the arrival path never allocates.
type nodeCount struct {
	received       uint64
	deliveredLocal uint64
	forwardedOut   uint64
	routingIn      uint64
	dropped        [numDropReasons]uint64
}

// NodeStats is a per-node packet accounting snapshot.
type NodeStats struct {
	// Received counts packets handed to this node by any medium.
	Received uint64
	// DeliveredLocal counts packets consumed here (Dst == this node).
	DeliveredLocal uint64
	// ForwardedOut counts transit packets sent onward.
	ForwardedOut uint64
	// RoutingIn counts routing packets handed to the agent.
	RoutingIn uint64
	// Dropped counts packets this node dropped, by reason.
	Dropped map[DropReason]uint64
}

// Stats returns a snapshot of the node's counters. Only tests read it:
// the partition K-invariance tests compare every node's snapshot, and the
// netsim and link-state tests count packets; the experiments report
// network-wide Counters.
func (nd *Node) Stats() NodeStats {
	snap := NodeStats{
		Received:       nd.stats.received,
		DeliveredLocal: nd.stats.deliveredLocal,
		ForwardedOut:   nd.stats.forwardedOut,
		RoutingIn:      nd.stats.routingIn,
		Dropped:        make(map[DropReason]uint64, numDropReasons),
	}
	for i, v := range nd.stats.dropped {
		if v != 0 {
			snap.Dropped[dropReasons[i]] = v
		}
	}
	return snap
}

// dropHere counts a drop against this node and the network and releases
// the packet's slot — every node-level drop is a terminal sink.
func (nd *Node) dropHere(pkt *Packet, why DropReason) {
	nd.stats.dropped[dropIndex(why)]++
	nd.net.dropAt(nd, why)
	nd.net.releaseAt(nd, pkt)
}

// Net returns the owning network.
func (nd *Node) Net() *Network { return nd.net }

// String returns "name(id)".
func (nd *Node) String() string { return fmt.Sprintf("%s(%d)", nd.Name, nd.ID) }

// sim returns the simulator this node's events run on: its partition's,
// or the network root while unpartitioned.
func (nd *Node) sim() *des.Simulator {
	if nd.part != nil {
		return nd.part.sim
	}
	return nd.net.Sim
}

// Now returns the node's current simulation time (its logical process's
// clock in a partitioned run).
func (nd *Node) Now() float64 { return nd.sim().Now() }

// nextKey draws the node's next event-ordering key: node id in the high
// bits, a per-node sequence below. Keys are globally unique, so (time,
// key) totally orders netsim events — the order cannot depend on which
// simulator an event was inserted into, or when. des's past-time panic
// prints the key in hex: the scheduling node is key>>38 - 1.
func (nd *Node) nextKey() uint64 {
	nd.evSeq++
	return (uint64(nd.ID)+1)<<38 | nd.evSeq
}

// Schedule queues fn at absolute time at, keyed and clocked by this node.
// All netsim-driven events — timers, workload injections, protocol work —
// must be scheduled through a node (not the raw root simulator) to stay
// deterministic under partitioning.
func (nd *Node) Schedule(at float64, label string, fn func()) des.Event {
	return nd.sim().ScheduleKeyed(at, nd.nextKey(), label, fn)
}

// After queues fn delay seconds from the node's now, keyed by this node.
func (nd *Node) After(delay float64, label string, fn func()) des.Event {
	s := nd.sim()
	return s.ScheduleKeyed(s.Now()+delay, nd.nextKey(), label, fn)
}

// Reservation holds an event that is drawn but not yet queued. Its
// instant and key come from the node's key sequence at the point a
// Schedule call would draw them, so every later key, and with it the
// whole event order, is the same whether or not the event is ever
// queued. The owner queues it once something will wait for it; until
// then Pending tells whether its instant is still ahead. The zero
// Reservation holds nothing.
type Reservation struct {
	at  float64 // queuedAt once queued
	key uint64  // 0: nothing reserved
}

// queuedAt marks a queued reservation: an instant no clock reaches, so
// it stays pending until its handler clears it.
const queuedAt = math.MaxFloat64

// Reserve draws a reservation delay seconds from nd's now, replacing
// what r held. An event at the current instant is queued at once, since
// a reservation cannot stand in for it (see des.Simulator.Fired);
// Reserve then returns its handle, and otherwise the zero Event.
func (r *Reservation) Reserve(nd *Node, delay float64, label string, fn func()) des.Event {
	*r = Reservation{at: nd.Now() + delay, key: nd.nextKey()}
	if r.at == nd.Now() {
		return r.Queue(nd, label, fn)
	}
	return des.Event{}
}

// Pending reports whether r's event is queued, or reserved with its
// instant still ahead of nd's clock.
func (r *Reservation) Pending(nd *Node) bool {
	return r.key != 0 && !nd.sim().Fired(r.at, r.key)
}

// Queued reports whether r's event has been queued.
func (r *Reservation) Queued() bool { return r.at == queuedAt }

// Queue queues r's event at its reserved instant and key and returns
// its handle. Call it on a pending reservation that is not queued yet.
func (r *Reservation) Queue(nd *Node, label string, fn func()) des.Event {
	ev := nd.sim().ScheduleKeyed(r.at, r.key, label, fn)
	r.at = queuedAt
	return ev
}

// Cancel removes an event previously scheduled via this node.
func (nd *Node) Cancel(e des.Event) bool { return nd.sim().Cancel(e) }

// attachMedium registers a medium the node is connected to.
func (nd *Node) attachMedium(m Medium) {
	nd.media = append(nd.media, m)
	nd.net.bumpTopology()
}

// Media returns the media this node is attached to, in attachment order.
func (nd *Node) Media() []Medium { return append([]Medium(nil), nd.media...) }

// NumMedia returns the number of attached media.
func (nd *Node) NumMedia() int { return len(nd.media) }

// MediumAt returns the i-th attached medium (attachment order) without
// copying the media list — the allocation-free companion to Media for
// per-packet paths.
func (nd *Node) MediumAt(i int) Medium { return nd.media[i] }

// Failed reports the node's crash state. The netsim, faults and protocol
// tests check crashes with it.
func (nd *Node) Failed() bool { return nd.failed }

// SetFailed crashes (true) or restores (false) the node. While failed,
// every packet handed to the node by any medium is dropped as
// DropNodeDown; crashing also discards any data packets parked in the
// CPU input queue (they were waiting on a processor that just lost
// power). SetFailed does not touch the FIB or any agent state — callers
// modelling a full router crash clear those too (routing.Agent.Crash
// does). Call it from an event executing at this node or from a
// single-threaded phase: the flag is owned by the node's logical
// process.
func (nd *Node) SetFailed(failed bool) {
	nd.failed = failed
	if failed && nd.CPU != nil {
		nd.CPU.flushQueue(DropNodeDown)
	}
}

// fibID converts a node id to the forwarding table's 32-bit form,
// reporting false for ids outside [0, 2^32).
func fibID(id NodeID) (uint32, bool) { return uint32(id), uint64(id) <= math.MaxUint32 }

// fibSearch returns the index of the first forwarding entry whose
// destination is not below dst, and whether that entry is dst's.
func (nd *Node) fibSearch(dst uint32) (int, bool) {
	fib := nd.fib
	lo, hi := 0, len(fib)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if fib[m].dst < dst {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(fib) && fib[lo].dst == dst
}

// SetRoute installs the forwarding entry for dst, replacing any earlier
// one. It panics when via is not attached to the node, or when dst or
// nextHop lies outside [0, 2^32), which no node or routing update can
// name.
func (nd *Node) SetRoute(dst NodeID, via Medium, nextHop NodeID) {
	d, okD := fibID(dst)
	next, okN := fibID(nextHop)
	if !okD || !okN {
		panic(fmt.Sprintf("netsim: %v: route to %d via next hop %d outside the forwarding table's id range", nd, dst, nextHop))
	}
	e := fibEntry{dst: d, next: next, via: nd.mediumIndex(via)}
	if i, ok := nd.fibSearch(d); ok {
		nd.fib[i] = e
	} else {
		nd.fib = slices.Insert(nd.fib, i, e)
	}
}

// mediumIndex returns m's position among the node's attached media.
func (nd *Node) mediumIndex(m Medium) uint16 {
	for i, x := range nd.media {
		if x == m {
			if i > math.MaxUint16 {
				panic(fmt.Sprintf("netsim: %v: route via medium %d, beyond the 65536 the forwarding table indexes", nd, i))
			}
			return uint16(i)
		}
	}
	panic(fmt.Sprintf("netsim: %v: route via a medium the node is not attached to", nd))
}

// Route returns the forwarding entry for dst.
func (nd *Node) Route(dst NodeID) (Egress, bool) {
	d, ok := fibID(dst)
	if !ok {
		return Egress{}, false
	}
	i, ok := nd.fibSearch(d)
	if !ok {
		return Egress{}, false
	}
	e := nd.fib[i]
	return Egress{Via: nd.media[e.via], NextHop: NodeID(e.next)}, true
}

// ClearRoute removes the forwarding entry for dst, if there is one.
func (nd *Node) ClearRoute(dst NodeID) {
	d, ok := fibID(dst)
	if !ok {
		return
	}
	if i, ok := nd.fibSearch(d); ok {
		nd.fib = slices.Delete(nd.fib, i, i+1)
	}
}

// ClearRoutes empties the forwarding table, keeping its capacity for
// the routes the node learns next (a crashed router's restart).
func (nd *Node) ClearRoutes() { nd.fib = nd.fib[:0] }

// RetainRoutes keeps the forwarding entries whose destination d has
// reached[d] set and removes the rest, including every destination at or
// beyond len(reached) — the withdraw pass of a shortest-path computation
// that marks the nodes it reached.
func (nd *Node) RetainRoutes(reached []bool) {
	n := 0
	for _, e := range nd.fib {
		if uint64(e.dst) < uint64(len(reached)) && reached[e.dst] {
			nd.fib[n] = e
			n++
		}
	}
	nd.fib = nd.fib[:n]
}

// SendOn transmits pkt directly on a medium, bypassing the FIB — the
// primitive routing agents use to broadcast updates to neighbors.
func (nd *Node) SendOn(m Medium, to NodeID, pkt *Packet) {
	m.Transmit(pkt, nd, to)
}

// receive is the arrival path: every packet handed to this node by a
// medium lands here.
func (nd *Node) receive(pkt *Packet, via Medium) {
	nd.stats.received++
	if nd.failed {
		nd.dropHere(pkt, DropNodeDown)
		return
	}
	if nd.LossProb > 0 && nd.rnd.Bernoulli(nd.LossProb) {
		nd.dropHere(pkt, DropRandomLoss)
		return
	}
	if pkt.Kind == KindRouting {
		// Routing packets go to the agent regardless of CPU state — the
		// router must process them (that processing is exactly what
		// occupies the CPU).
		nd.stats.routingIn++
		if nd.OnRouting != nil {
			// Ownership transfers to the agent, which releases the slot
			// when it finishes processing the update.
			nd.OnRouting(pkt, via)
			return
		}
		nd.net.countersFor(nd).delivered++
		nd.net.releaseAt(nd, pkt)
		return
	}
	if nd.CPU != nil && nd.CPU.Busy() {
		// Pre-fix router behaviour (paper §2): while routing updates are
		// being processed the forwarding path is stalled; a small input
		// queue absorbs what it can and the rest is lost.
		nd.CPU.enqueueOrDrop(pkt)
		return
	}
	nd.dispatch(pkt)
}

// dispatch delivers local packets and forwards transit ones.
func (nd *Node) dispatch(pkt *Packet) {
	if pkt.Dst == nd.ID {
		nd.deliverLocal(pkt)
		return
	}
	nd.forward(pkt)
}

// deliverLocal consumes a packet at its destination: the OnDeliver
// handler borrows it for the duration of the call, and the slot is
// released when the handler returns (handlers keeping payload or path
// data must copy it).
func (nd *Node) deliverLocal(pkt *Packet) {
	nd.net.countersFor(nd).delivered++
	nd.stats.deliveredLocal++
	if fn, ok := nd.OnDeliver[pkt.Kind]; ok {
		fn(pkt)
	}
	nd.net.releaseAt(nd, pkt)
}

// forward sends a transit packet toward its destination via the FIB.
func (nd *Node) forward(pkt *Packet) {
	pkt.TTL--
	if pkt.TTL <= 0 {
		nd.dropHere(pkt, DropTTLExpired)
		return
	}
	eg, ok := nd.Route(pkt.Dst)
	if !ok {
		nd.dropHere(pkt, DropNoRoute)
		return
	}
	nd.net.countersFor(nd).forwarded++
	nd.stats.forwardedOut++
	eg.Via.Transmit(pkt, nd, eg.NextHop)
}

// route is the injection path for locally generated packets: deliver to
// self or forward, without a TTL charge for the first hop decision.
func (nd *Node) route(pkt *Packet) {
	if nd.failed {
		// A crashed node generates nothing; workloads scheduled on it
		// lose their packets at the source.
		nd.net.dropAt(nd, DropNodeDown)
		nd.net.releaseAt(nd, pkt)
		return
	}
	if pkt.Dst == nd.ID {
		nd.deliverLocal(pkt)
		return
	}
	eg, ok := nd.Route(pkt.Dst)
	if !ok {
		// Counted network-wide but not against the node: the packet never
		// traversed the forwarding path.
		nd.net.dropAt(nd, DropNoRoute)
		nd.net.releaseAt(nd, pkt)
		return
	}
	eg.Via.Transmit(pkt, nd, eg.NextHop)
}
