package netsim

import (
	"fmt"

	"routesync/internal/rng"
)

// This file generates the larger topologies behind the scale experiments
// (the paper's §2 measurement setting is many routers exchanging periodic
// updates across a real internetwork): regular grids and two-level
// AS-like graphs, plus owner functions that map them onto partitions for
// conservative parallel execution.

// BuildGrid creates a rows×cols mesh of nodes connected by identical
// links (4-neighborhood). cpus[i] configures node i (nil or short slice:
// no CPU). Static routes are NOT installed — grids exist for scale runs,
// which route selectively. Returns the nodes in row-major order.
func (n *Network) BuildGrid(rows, cols int, cpus []*CPUConfig, link LinkConfig) []*Node {
	if rows < 1 || cols < 1 || rows*cols < 2 {
		panic("netsim: a grid needs at least two nodes")
	}
	nodes := make([]*Node, rows*cols)
	for i := range nodes {
		var cpu *CPUConfig
		if i < len(cpus) {
			cpu = cpus[i]
		}
		nodes[i] = n.NewNode(fmt.Sprintf("g%d.%d", i/cols, i%cols), cpu)
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			i := r*cols + c
			if c+1 < cols {
				n.Connect(nodes[i], nodes[i+1], link)
			}
			if r+1 < rows {
				n.Connect(nodes[i], nodes[i+cols], link)
			}
		}
	}
	return nodes
}

// TwoLevelASConfig parameterizes BuildTwoLevelAS.
type TwoLevelASConfig struct {
	// NumAS is the number of autonomous-system-like domains.
	NumAS int
	// RoutersPerAS is the number of routers inside each domain.
	RoutersPerAS int
	// IntraLink configures links inside a domain (a ring plus chords).
	IntraLink LinkConfig
	// InterLink configures the backbone links between domain gateways; it
	// must have Delay > 0 when the build is partitioned along domain
	// boundaries (the delay is the synchronization lookahead).
	InterLink LinkConfig
	// CPU configures every router's CPU; nil means no CPU model.
	CPU *CPUConfig
	// Chords adds this many deterministic shortcut chords inside each
	// domain (0 keeps pure rings).
	Chords int
}

// TwoLevelAS is the built topology: Routers[a][i] is router i of domain
// a; Gateways[a] is the router of domain a on the inter-domain backbone
// (its router 0). The backbone is a ring over the gateways plus skip
// links every 4 domains for shorter inter-domain paths.
type TwoLevelAS struct {
	Routers  [][]*Node
	Gateways []*Node
}

// BuildTwoLevelAS creates an AS-like two-level graph: NumAS domains of
// RoutersPerAS routers each (a ring plus Chords shortcut chords), joined
// by a backbone ring over the per-domain gateways. The layout is fully
// deterministic. No routes are installed and no CPU-free hosts are added;
// callers attach agents, hosts and workloads.
//
// Node ids are dense per domain — domain a owns ids [a·RoutersPerAS,
// (a+1)·RoutersPerAS) — which is what OwnerByBlock exploits to partition
// along domain boundaries without splitting a domain.
func (n *Network) BuildTwoLevelAS(cfg TwoLevelASConfig) *TwoLevelAS {
	if cfg.NumAS < 1 || cfg.RoutersPerAS < 1 || cfg.NumAS*cfg.RoutersPerAS < 2 {
		panic("netsim: BuildTwoLevelAS needs at least two routers")
	}
	t := &TwoLevelAS{
		Routers:  make([][]*Node, cfg.NumAS),
		Gateways: make([]*Node, cfg.NumAS),
	}
	for a := 0; a < cfg.NumAS; a++ {
		rs := make([]*Node, cfg.RoutersPerAS)
		for i := range rs {
			rs[i] = n.NewNode(fmt.Sprintf("as%d.r%d", a, i), cfg.CPU)
		}
		// Ring inside the domain.
		if cfg.RoutersPerAS > 1 {
			for i := 0; i+1 < len(rs); i++ {
				n.Connect(rs[i], rs[i+1], cfg.IntraLink)
			}
			if len(rs) > 2 {
				n.Connect(rs[len(rs)-1], rs[0], cfg.IntraLink)
			}
		}
		// Deterministic chords: i — (i + span) with span ~ half the ring,
		// starting points spread around it.
		span := cfg.RoutersPerAS/2 + 1
		for c := 0; c < cfg.Chords; c++ {
			i := (c * 2) % cfg.RoutersPerAS
			j := (i + span) % cfg.RoutersPerAS
			if i != j {
				n.Connect(rs[i], rs[j], cfg.IntraLink)
			}
		}
		t.Routers[a] = rs
		t.Gateways[a] = rs[0]
	}
	// Backbone: gateway ring plus skip links every 4 domains.
	if cfg.NumAS > 1 {
		for a := 0; a+1 < cfg.NumAS; a++ {
			n.Connect(t.Gateways[a], t.Gateways[a+1], cfg.InterLink)
		}
		if cfg.NumAS > 2 {
			n.Connect(t.Gateways[cfg.NumAS-1], t.Gateways[0], cfg.InterLink)
		}
		for a := 0; a+4 < cfg.NumAS; a += 4 {
			n.Connect(t.Gateways[a], t.Gateways[a+4], cfg.InterLink)
		}
	}
	return t
}

// ASEdgeRel labels a generated inter-AS link with the business
// relationship that drives path-vector export policy.
type ASEdgeRel int8

const (
	// EdgeProviderCustomer: edge endpoint A sells transit to endpoint B.
	EdgeProviderCustomer ASEdgeRel = iota
	// EdgePeerPeer: settlement-free peering between A and B.
	EdgePeerPeer
)

// ASEdge is one generated inter-AS adjacency with its policy label.
type ASEdge struct {
	Link *Link
	// A and B are the endpoints; for EdgeProviderCustomer, A is the
	// provider and B the customer.
	A, B *Node
	Rel  ASEdgeRel
}

// ASGraph is a generated AS-level topology: one node per AS, and every
// edge labeled with its provider–customer or peer–peer relationship.
// Node ids are dense in creation order, so OwnerByBlock partitions the
// graph into contiguous id ranges.
type ASGraph struct {
	Nodes []*Node
	Edges []ASEdge
}

// PreferentialAttachmentConfig parameterizes BuildPreferentialAttachment.
type PreferentialAttachmentConfig struct {
	// N is the AS count; M the edges each arriving AS creates (the
	// Barabási–Albert parameter). N must exceed M.
	N, M int
	// Link configures every generated link; it needs Delay > 0 when the
	// build is partitioned (the delay is the synchronization lookahead).
	Link LinkConfig
	// CPU configures every AS's router CPU; nil means no CPU model.
	CPU *CPUConfig
	// Seed drives the attachment draws; the graph is a pure function of
	// (N, M, Seed) — independent, in particular, of partition count.
	Seed int64
}

// BuildPreferentialAttachment grows a Barabási–Albert power-law AS
// graph: a seed clique of M+1 peered ASes, then each arriving AS links
// to M distinct existing ASes chosen proportionally to degree. The
// arriving AS buys transit from its targets (it is their customer), so
// the provider–customer edges always point from an older AS to a newer
// one — the relation graph is acyclic by construction, and the
// early-clique hubs become the high-degree transit core, as in the
// measured internet. The graph is connected for the same reason.
func (n *Network) BuildPreferentialAttachment(cfg PreferentialAttachmentConfig) *ASGraph {
	if cfg.M < 1 || cfg.N <= cfg.M {
		panic("netsim: BuildPreferentialAttachment needs N > M ≥ 1")
	}
	r := rng.New(cfg.Seed ^ 0x41535F5041) // "AS_PA"
	g := &ASGraph{Nodes: make([]*Node, cfg.N)}
	for i := range g.Nodes {
		g.Nodes[i] = n.NewNode(fmt.Sprintf("as%d", i), cfg.CPU)
	}
	core := cfg.M + 1
	if core > cfg.N {
		core = cfg.N
	}
	// ball holds one entry per edge endpoint: sampling it uniformly is
	// degree-proportional sampling.
	ball := make([]int, 0, 2*(core*(core-1)/2+cfg.M*(cfg.N-core)))
	addEdge := func(a, b int, rel ASEdgeRel) {
		l := n.Connect(g.Nodes[a], g.Nodes[b], cfg.Link)
		g.Edges = append(g.Edges, ASEdge{Link: l, A: g.Nodes[a], B: g.Nodes[b], Rel: rel})
		ball = append(ball, a, b)
	}
	for i := 0; i < core; i++ {
		for j := i + 1; j < core; j++ {
			addEdge(i, j, EdgePeerPeer)
		}
	}
	picked := make([]int, 0, cfg.M)
	for v := core; v < cfg.N; v++ {
		picked = picked[:0]
		for len(picked) < cfg.M {
			t := ball[r.Intn(len(ball))]
			dup := false
			for _, p := range picked {
				if p == t {
					dup = true
					break
				}
			}
			if !dup {
				picked = append(picked, t)
			}
		}
		for _, t := range picked {
			addEdge(t, v, EdgeProviderCustomer) // t (older) provides transit to v
		}
	}
	return g
}

// ProviderCustomerConfig parameterizes BuildProviderCustomer.
type ProviderCustomerConfig struct {
	// Cores is the number of top-tier transit ASes (fully meshed with
	// settlement-free peering); Stubs the number of edge ASes.
	Cores, Stubs int
	// Homing is the number of distinct providers each stub buys transit
	// from (multihoming); zero means 2, clamped to Cores.
	Homing int
	// CoreLink / StubLink configure the peering and access links; both
	// need Delay > 0 when the build is partitioned.
	CoreLink, StubLink LinkConfig
	// CPU configures every AS's router CPU; nil means no CPU model.
	CPU *CPUConfig
	// Seed drives the provider assignment; the graph is a pure function
	// of the configuration.
	Seed int64
}

// BuildProviderCustomer generates a two-tier internet: a full mesh of
// peered core ASes, and stub ASes each multihomed to Homing distinct
// core providers. Core ids come first ([0, Cores)), stubs after, so the
// provider–customer relation is acyclic by construction and OwnerByBlock
// keeps each id range contiguous. Every stub reaches every other
// through the core, making the valley-free policy reachability total.
func (n *Network) BuildProviderCustomer(cfg ProviderCustomerConfig) *ASGraph {
	if cfg.Cores < 1 || cfg.Stubs < 0 {
		panic("netsim: BuildProviderCustomer needs at least one core")
	}
	homing := cfg.Homing
	if homing == 0 {
		homing = 2
	}
	if homing > cfg.Cores {
		homing = cfg.Cores
	}
	r := rng.New(cfg.Seed ^ 0x41535F3254) // "AS_2T"
	g := &ASGraph{Nodes: make([]*Node, 0, cfg.Cores+cfg.Stubs)}
	for i := 0; i < cfg.Cores; i++ {
		g.Nodes = append(g.Nodes, n.NewNode(fmt.Sprintf("core%d", i), cfg.CPU))
	}
	for i := 0; i < cfg.Stubs; i++ {
		g.Nodes = append(g.Nodes, n.NewNode(fmt.Sprintf("stub%d", i), cfg.CPU))
	}
	for i := 0; i < cfg.Cores; i++ {
		for j := i + 1; j < cfg.Cores; j++ {
			l := n.Connect(g.Nodes[i], g.Nodes[j], cfg.CoreLink)
			g.Edges = append(g.Edges, ASEdge{Link: l, A: g.Nodes[i], B: g.Nodes[j], Rel: EdgePeerPeer})
		}
	}
	picked := make([]int, 0, homing)
	for s := 0; s < cfg.Stubs; s++ {
		stub := g.Nodes[cfg.Cores+s]
		picked = picked[:0]
		for len(picked) < homing {
			c := r.Intn(cfg.Cores)
			dup := false
			for _, p := range picked {
				if p == c {
					dup = true
					break
				}
			}
			if !dup {
				picked = append(picked, c)
			}
		}
		for _, c := range picked {
			l := n.Connect(g.Nodes[c], stub, cfg.StubLink)
			g.Edges = append(g.Edges, ASEdge{Link: l, A: g.Nodes[c], B: stub, Rel: EdgeProviderCustomer})
		}
	}
	return g
}

// MetroLANConfig parameterizes BuildMetroLAN.
type MetroLANConfig struct {
	// Segments is the number of LAN segments; HostsPerSeg the number of
	// routers on each (including the segment's gateway).
	Segments, HostsPerSeg int
	// LAN configures each broadcast segment; a zero Delay means 50 µs at
	// 10 Mb/s (a classic shared Ethernet).
	LAN LANConfig
	// Bridge configures the gateway-to-gateway links joining the
	// segments; a zero Delay means 100 µs at 100 Mb/s (a metro fiber
	// bridge). The bridge delay is the synchronization lookahead when the
	// build is partitioned along segment boundaries — deliberately tiny
	// relative to any routing-protocol period, which is what makes this
	// the low-lookahead stress topology for the partition engine.
	Bridge LinkConfig
	// CPU configures every router's CPU; nil means no CPU model.
	CPU *CPUConfig
}

// MetroLAN is the built topology: Hosts[s][i] is router i of segment s,
// and Gateways[s] (== Hosts[s][0]) sits on the inter-segment bridge
// ring. Node ids are dense per segment, so OwnerByBlock(HostsPerSeg,
// Segments, k) partitions along segment boundaries without splitting a
// LAN (a LAN must live inside one partition).
type MetroLAN struct {
	Hosts    [][]*Node
	Gateways []*Node
	LANs     []*LAN
}

// BuildMetroLAN creates a metropolitan campus network: Segments broadcast
// LANs, each segment's router 0 acting as its gateway, joined by a
// bridge ring over the gateways plus skip links every 4 segments. The
// layout is fully deterministic. No routes are installed; callers attach
// agents and workloads.
//
// The interesting property is the ratio between the bridge delay (the
// partitioned lookahead, ~100 µs) and the inter-segment traffic gap
// (routing periods, seconds): the partitioned run must barrier every
// lookahead even though virtually no window moves a boundary packet.
func (n *Network) BuildMetroLAN(cfg MetroLANConfig) *MetroLAN {
	if cfg.Segments < 1 || cfg.HostsPerSeg < 2 {
		panic("netsim: BuildMetroLAN needs segments of at least 2 hosts")
	}
	if cfg.LAN.Delay == 0 {
		cfg.LAN = LANConfig{Delay: 50e-6, Bandwidth: 10e6, QueueCap: cfg.LAN.QueueCap}
	}
	if cfg.Bridge.Delay == 0 {
		cfg.Bridge = LinkConfig{Delay: 100e-6, Bandwidth: 100e6, QueueCap: cfg.Bridge.QueueCap}
	}
	t := &MetroLAN{
		Hosts:    make([][]*Node, cfg.Segments),
		Gateways: make([]*Node, cfg.Segments),
		LANs:     make([]*LAN, cfg.Segments),
	}
	for s := 0; s < cfg.Segments; s++ {
		hosts := make([]*Node, cfg.HostsPerSeg)
		for i := range hosts {
			hosts[i] = n.NewNode(fmt.Sprintf("seg%d.h%d", s, i), cfg.CPU)
		}
		t.Hosts[s] = hosts
		t.Gateways[s] = hosts[0]
		t.LANs[s] = n.NewLAN(hosts, cfg.LAN)
	}
	if cfg.Segments > 1 {
		for s := 0; s+1 < cfg.Segments; s++ {
			n.Connect(t.Gateways[s], t.Gateways[s+1], cfg.Bridge)
		}
		if cfg.Segments > 2 {
			n.Connect(t.Gateways[cfg.Segments-1], t.Gateways[0], cfg.Bridge)
		}
		for s := 0; s+4 < cfg.Segments; s += 4 {
			n.Connect(t.Gateways[s], t.Gateways[s+4], cfg.Bridge)
		}
	}
	return t
}

// OwnerByBlock returns an owner function assigning node ids to k
// partitions in contiguous blocks of the given size: ids [0, blockSize)
// share a partition, and blocks are dealt round-robin-free — block b goes
// to partition b·k/numBlocks — so partitions get contiguous runs of
// blocks and cross-partition edges are minimized for block-local
// topologies (BuildTwoLevelAS domains, grid rows).
//
// Nodes created after the blocked range (measurement hosts appended at
// the end) land with the final block.
func OwnerByBlock(blockSize, numBlocks, k int) func(NodeID) int {
	if blockSize < 1 || numBlocks < 1 || k < 1 {
		panic("netsim: OwnerByBlock needs positive sizes")
	}
	return func(id NodeID) int {
		b := int(id) / blockSize
		if b >= numBlocks {
			b = numBlocks - 1
		}
		return b * k / numBlocks
	}
}
