// Package netsim is an event-driven, packet-level network simulator:
// store-and-forward nodes, point-to-point links with propagation delay and
// serialization at a configured bandwidth, broadcast LAN segments,
// drop-tail queues, and a router CPU model in which routing-protocol
// processing can stall the forwarding path.
//
// The CPU model is the paper's §2 measurement result turned into a
// mechanism: the NEARnet core routers "were prevented from routing other
// packets while the synchronized routing updates were being processed",
// which produced the 90-second periodic losses of Figure 1. A node's CPU
// reproduces that behaviour. The post-fix software, where forwarding
// continues during update processing, has no mode of its own: a
// negligible processing cost leaves no stall to wait behind.
//
// netsim deliberately shares no shortcut assumptions with
// internal/periodic: messages here are real packets crossing real links,
// so experiments built on it (Figs 1–3) exercise an independent
// implementation of the paper's mechanisms.
//
// # Determinism and parallel execution
//
// Every event a simulation schedules is keyed by its origin node and a
// per-node sequence number (des.ScheduleKeyed), every random draw comes
// from a per-node stream, and packet ids and counters are per-node too —
// so the execution order at equal timestamps is a pure function of the
// simulated system, not of scheduling order. That is what lets Partition
// split a topology across K logical processes, each on its own
// des.Simulator, and still produce bit-identical results for any K
// (including K=1 and the unpartitioned network). See partition.go.
//
// A node's forwarding table is one destination-sorted array of
// pointer-free entries (Node.SetRoute, Node.Route). Only events
// executing at the node, or single-threaded phases, write it, and only
// the node's own forwarding path reads it, so each logical process owns
// its nodes' tables outright and no lock guards them.
package netsim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"routesync/internal/des"
	"routesync/internal/rng"
)

// NodeID identifies a node within one Network.
type NodeID int

// Kind classifies packets; forwarding treats kinds identically but
// delivery dispatches on them.
type Kind uint8

// Packet kinds.
const (
	KindData Kind = iota
	KindRouting
	KindEchoRequest
	KindEchoReply
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindRouting:
		return "routing"
	case KindEchoRequest:
		return "echo-request"
	case KindEchoReply:
		return "echo-reply"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Packet is one simulated datagram. Payload carries protocol data (e.g. an
// encoded routing update); the simulator never inspects it.
//
// Packets created through Network.NewPacket are pooled slots: a terminal
// sink (delivery, any drop) returns the slot to its logical process's
// free list, and the next NewPacket there reuses it — the hot path
// allocates nothing at steady state. See pktpool.go for the ownership
// rules and PacketRef for generation-checked handles. Packet literals
// built directly by tests bypass the pool and behave as before.
type Packet struct {
	ID      uint64
	Kind    Kind
	Src     NodeID
	Dst     NodeID // ignored for broadcast routing packets on a LAN
	Size    int    // bytes on the wire
	TTL     int
	Created float64 // injection time
	Payload []byte
	// Seq is workload-defined (ping number, audio frame number).
	Seq int64

	// Pool bookkeeping (see pktpool.go). gen is bumped on every release
	// so stale PacketRefs detect reuse; payloadBuf is the slot's retained
	// payload arena, sized by its high-water mark. home is the pool that
	// allocated the slot — a release on a foreign logical process parks
	// the slot for repatriation at the next window barrier instead of
	// adopting it.
	gen        uint32
	pooled     bool
	live       bool
	payloadBuf []byte
	home       *pktPool
}

// DropReason classifies packet losses for the counters.
type DropReason string

// Drop reasons.
const (
	DropQueueOverflow DropReason = "queue-overflow"
	DropCPUBusy       DropReason = "cpu-busy"
	DropNoRoute       DropReason = "no-route"
	DropTTLExpired    DropReason = "ttl-expired"
	DropRandomLoss    DropReason = "random-loss"
	DropLinkDown      DropReason = "link-down"
	DropNodeDown      DropReason = "node-down"
)

// Drop-counter slots. Counting a drop is an array increment — no map
// lookup, no lazy allocation — and merging partition counters is a
// commutative array sum. The enum below, dropIndex and dropReasons must
// agree slot for slot: a new reason goes in all three, and
// TestDropReasonsExhaustive fails on any mismatch, so extending the
// reason list can never silently truncate the fixed counter arrays.
const (
	dropQueueOverflowIdx = iota
	dropCPUBusyIdx
	dropNoRouteIdx
	dropTTLExpiredIdx
	dropRandomLossIdx
	dropLinkDownIdx
	dropNodeDownIdx

	// numDropReasons sizes the fixed drop-counter arrays; it is the enum
	// length, so arrays grow automatically with the enum.
	numDropReasons
)

func dropIndex(r DropReason) int {
	switch r {
	case DropQueueOverflow:
		return dropQueueOverflowIdx
	case DropCPUBusy:
		return dropCPUBusyIdx
	case DropNoRoute:
		return dropNoRouteIdx
	case DropTTLExpired:
		return dropTTLExpiredIdx
	case DropRandomLoss:
		return dropRandomLossIdx
	case DropLinkDown:
		return dropLinkDownIdx
	case DropNodeDown:
		return dropNodeDownIdx
	default:
		panic(fmt.Sprintf("netsim: unknown drop reason %q", r))
	}
}

// dropReasons lists reasons in dropIndex order, for snapshots.
var dropReasons = [numDropReasons]DropReason{
	DropQueueOverflow, DropCPUBusy, DropNoRoute,
	DropTTLExpired, DropRandomLoss, DropLinkDown, DropNodeDown,
}

// counterSet is the internal accounting block. The unpartitioned network
// owns one; every partition owns its own, so logical processes never
// contend on shared counters, and Counters() merges them — all fields are
// commutative sums, so the merge is K-independent.
type counterSet struct {
	injected  uint64
	delivered uint64
	forwarded uint64
	drops     [numDropReasons]uint64
}

func (c *counterSet) add(o *counterSet) {
	c.injected += o.injected
	c.delivered += o.delivered
	c.forwarded += o.forwarded
	for i := range c.drops {
		c.drops[i] += o.drops[i]
	}
}

// Counters aggregates network-wide packet accounting.
type Counters struct {
	Injected  uint64
	Delivered uint64
	Forwarded uint64
	Drops     map[DropReason]uint64
}

// Network owns the simulator, the topology and the counters.
type Network struct {
	// Sim is the root simulator. An unpartitioned network runs entirely
	// on it; after Partition it only orders pre-run setup (it must be
	// empty when Run starts — every runtime event lives in a partition).
	Sim *des.Simulator
	// seed derives the per-node streams behind runtime draws — per-arrival
	// loss — so the draw order cannot depend on the partitioning.
	seed  int64
	nodes []*Node
	count counterSet
	// topoVer is atomic because scheduled fault transitions (Link.FailAt,
	// node crashes) bump it from partition goroutines; the
	// increments commute, so the merged value stays K-invariant.
	topoVer atomic.Uint64
	parts   []*partition
	// lookahead is the minimum cross-partition link delay (see Lookahead).
	lookahead float64
	// syncStats accumulates per-window synchronization counters.
	// syncObs is the SyncObserver view of obs, cached at SetObserver so
	// the per-window notification costs one nil check.
	syncStats SyncStats
	syncObs   SyncObserver
	// phantomPktSeq numbers packets whose src is not a real node.
	phantomPktSeq uint64
	obs           des.Observer
	// pool is the unpartitioned network's packet slot pool (also the
	// source for phantom-src packets); each partition owns its own.
	pool pktPool
	// wdone synchronizes partition worker goroutines with the window
	// coordinator (see runPartitioned).
	wdone sync.WaitGroup
}

// NewNetwork creates an empty network with the given seed.
func NewNetwork(seed int64) *Network {
	return &Network{
		Sim:  des.New(),
		seed: seed,
	}
}

// countersFor returns the counter set charged by events executing at nd:
// the owning partition's when the network is partitioned, the network's
// otherwise.
func (n *Network) countersFor(nd *Node) *counterSet {
	if nd.part != nil {
		return &nd.part.count
	}
	return &n.count
}

// Counters returns a snapshot of the accounting counters, merged across
// partitions. The merge order is fixed (partition index), and every field
// is a sum, so the snapshot is identical for any partition count.
func (n *Network) Counters() Counters {
	total := n.count
	for _, p := range n.parts {
		total.add(&p.count)
	}
	snap := Counters{
		Injected:  total.injected,
		Delivered: total.delivered,
		Forwarded: total.forwarded,
		Drops:     make(map[DropReason]uint64, numDropReasons),
	}
	for i, v := range total.drops {
		if v != 0 {
			snap.Drops[dropReasons[i]] = v
		}
	}
	return snap
}

// dropAt counts a drop charged to the node where it happened.
func (n *Network) dropAt(nd *Node, why DropReason) {
	n.countersFor(nd).drops[dropIndex(why)]++
}

// maxNodes bounds a network's node count: nextKey keeps the node id in
// the 26 bits above a 38-bit sequence, which also keeps every id inside
// the forwarding table's 32-bit fields.
const maxNodes = 1<<26 - 1

// NewNode adds a node. A nil cpu means an infinitely fast node (hosts,
// ideal switches).
func (n *Network) NewNode(name string, cpu *CPUConfig) *Node {
	if n.parts != nil {
		panic("netsim: cannot add nodes to a partitioned network")
	}
	if len(n.nodes) >= maxNodes {
		panic(fmt.Sprintf("netsim: more than %d nodes", maxNodes))
	}
	id := NodeID(len(n.nodes))
	nd := &Node{
		ID:   id,
		Name: name,
		net:  n,
		// A per-node stream: the (node, arrival) → draw mapping is then
		// independent of global event interleaving, which keeps loss
		// patterns identical across partition counts.
		rnd: rng.New(n.seed ^ (int64(id)+1)*0x9E3779B9),
	}
	if cpu != nil {
		nd.CPU = newCPU(nd, *cpu)
	}
	n.nodes = append(n.nodes, nd)
	return nd
}

// Node returns the node with the given id. It panics on unknown ids.
func (n *Network) Node(id NodeID) *Node {
	if int(id) < 0 || int(id) >= len(n.nodes) {
		panic(fmt.Sprintf("netsim: unknown node %d", id))
	}
	return n.nodes[id]
}

// NumNodes returns the number of nodes; node ids are dense in
// [0, NumNodes), which lets routing agents use slice-indexed scratch
// state instead of maps on their hot paths.
func (n *Network) NumNodes() int { return len(n.nodes) }

// TopologyVersion returns a counter that increments whenever the
// topology changes — a medium is attached or a link changes up/down
// state. Agents use it to invalidate cached adjacency.
func (n *Network) TopologyVersion() uint64 { return n.topoVer.Load() }

// bumpTopology invalidates topology-derived caches.
func (n *Network) bumpTopology() { n.topoVer.Add(1) }

// NewPacket returns a packet with a fresh id and the current timestamp,
// drawn from the creating logical process's slot pool (allocation-free at
// steady state — see pktpool.go). Ids are drawn from the source node's
// counter (high bits node, low bits per-node sequence) so id assignment
// commutes across partitions. A src outside the node table (tests
// injecting phantom senders) falls back to a network-level counter in a
// reserved id range and the network-level pool.
func (n *Network) NewPacket(kind Kind, src, dst NodeID, size int) *Packet {
	var pkt *Packet
	if int(src) >= 0 && int(src) < len(n.nodes) {
		nd := n.nodes[src]
		pkt = n.poolFor(nd).get()
		nd.pktSeq++
		pkt.ID = (uint64(src)+1)<<38 | nd.pktSeq
		pkt.Created = nd.Now()
	} else {
		pkt = n.pool.get()
		n.phantomPktSeq++
		pkt.ID = uint64(1)<<63 | n.phantomPktSeq
		pkt.Created = n.Now()
	}
	pkt.Kind = kind
	pkt.Src = src
	pkt.Dst = dst
	pkt.Size = size
	pkt.TTL = 64
	// Payload was cleared when the slot was released; the
	// workload-defined Seq must be reset here.
	pkt.Seq = 0
	return pkt
}

// Inject introduces a packet at its source node as if generated locally,
// routing it toward pkt.Dst. In a partitioned run it must be called from
// the source node's partition (i.e. from an event scheduled at a node the
// same partition owns) or during single-threaded setup.
func (n *Network) Inject(pkt *Packet) {
	src := n.Node(pkt.Src)
	n.countersFor(src).injected++
	src.route(pkt)
}

// SetObserver installs a kernel observer on every simulator this network
// runs on (the root simulator and every partition's). In a partitioned
// run the observer is invoked concurrently from all partition goroutines,
// so implementations must be safe for concurrent use — the runner's
// atomic metrics observer is.
func (n *Network) SetObserver(obs des.Observer) {
	n.obs = obs
	n.syncObs, _ = obs.(SyncObserver)
	n.Sim.SetObserver(obs)
	for _, p := range n.parts {
		p.sim.SetObserver(obs)
	}
}

// Now returns the current simulation time: the root clock, or — in a
// partitioned network — the first partition's clock. Outside Run all
// partition clocks agree (RunUntil leaves every clock at the horizon), so
// this is well-defined whenever user code can observe it.
func (n *Network) Now() float64 {
	if len(n.parts) > 0 {
		return n.parts[0].sim.Now()
	}
	return n.Sim.Now()
}

// RunUntil advances the simulation to the horizon: sequentially on the
// root simulator, or — after Partition — by conservative bounded-window
// parallel execution across the partitions.
func (n *Network) RunUntil(t float64) {
	if len(n.parts) > 0 {
		n.runPartitioned(t)
		return
	}
	n.Sim.RunUntil(t)
}
