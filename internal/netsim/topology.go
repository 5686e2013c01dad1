package netsim

import "routesync/internal/rng"

// neighbors enumerates (medium, peer) pairs reachable in one hop from nd.
func neighbors(nd *Node) []Egress {
	var out []Egress
	for _, m := range nd.media {
		switch t := m.(type) {
		case *Link:
			out = append(out, Egress{Via: t, NextHop: t.Peer(nd).ID})
		case *LAN:
			for _, peer := range t.Members() {
				if peer != nd {
					out = append(out, Egress{Via: t, NextHop: peer.ID})
				}
			}
		}
	}
	return out
}

// adjacency materializes every node's (medium, peer) list once, indexed
// by node id, so repeated BFS passes don't re-enumerate media.
func (n *Network) adjacency() [][]Egress {
	adj := make([][]Egress, len(n.nodes))
	for i, nd := range n.nodes {
		adj[i] = neighbors(nd)
	}
	return adj
}

// InstallStaticRoutes fills every node's FIB with shortest-path (hop
// count) routes computed by breadth-first search over the topology.
// Experiments that study forwarding behaviour rather than route
// computation (Figs 1–3) use this instead of running a routing protocol to
// convergence; the routing protocol's own tests verify it converges to
// the same routes.
//
// The cost is Θ(N·(N+E)) time and Θ(N²) FIB entries, which is fine for
// figure-scale topologies but not for thousands of routers — large-scale
// experiments route only toward their measured hosts with
// InstallRoutesToward instead.
func (n *Network) InstallStaticRoutes() {
	// BFS from each source over a pre-built adjacency, with slice-indexed
	// scratch reused across sources (node ids are dense).
	type qe struct {
		node  NodeID
		first Egress // egress src used to start this branch
	}
	adj := n.adjacency()
	visited := make([]bool, len(n.nodes))
	queue := make([]qe, 0, len(n.nodes))
	for _, src := range n.nodes {
		for i := range visited {
			visited[i] = false
		}
		queue = queue[:0]
		visited[src.ID] = true
		for _, eg := range adj[src.ID] {
			if visited[eg.NextHop] {
				continue
			}
			visited[eg.NextHop] = true
			src.SetRoute(eg.NextHop, eg.Via, eg.NextHop)
			queue = append(queue, qe{node: eg.NextHop, first: eg})
		}
		for qi := 0; qi < len(queue); qi++ {
			cur := queue[qi]
			for _, eg := range adj[cur.node] {
				if visited[eg.NextHop] {
					continue
				}
				visited[eg.NextHop] = true
				src.SetRoute(eg.NextHop, cur.first.Via, cur.first.NextHop)
				queue = append(queue, qe{node: eg.NextHop, first: cur.first})
			}
		}
	}
}

// InstallRoutesToward installs shortest-path routes from every node
// toward each of the given destinations only — Θ(D·(N+E)) instead of the
// all-pairs Θ(N·(N+E)), and Θ(D·N) FIB entries instead of Θ(N²). Used by
// the large-topology experiments, whose measured traffic flows to a
// handful of hosts while the routing protocol exercises the full graph.
//
// For each destination a reverse BFS labels every node with its
// distance, and each node routes via its first egress (media order) that
// decreases the distance. Paths are shortest; among equal-length paths
// the tie-break is deterministic but may differ from InstallStaticRoutes'
// branch order.
func (n *Network) InstallRoutesToward(dests []NodeID) {
	adj := n.adjacency()
	dist := make([]int, len(n.nodes))
	queue := make([]NodeID, 0, len(n.nodes))
	for _, dst := range dests {
		for i := range dist {
			dist[i] = -1
		}
		queue = queue[:0]
		dist[dst] = 0
		queue = append(queue, dst)
		for qi := 0; qi < len(queue); qi++ {
			cur := queue[qi]
			for _, eg := range adj[cur] {
				if dist[eg.NextHop] < 0 {
					dist[eg.NextHop] = dist[cur] + 1
					queue = append(queue, eg.NextHop)
				}
			}
		}
		for _, nd := range n.nodes {
			if nd.ID == dst || dist[nd.ID] < 0 {
				continue
			}
			// First egress (media order) that decreases the distance — the
			// same tie-break a forward BFS from nd would pick.
			for _, eg := range adj[nd.ID] {
				if dist[eg.NextHop] == dist[nd.ID]-1 {
					nd.SetRoute(dst, eg.Via, eg.NextHop)
					break
				}
			}
		}
	}
}

// BuildChain creates a linear chain of nodes connected by identical links:
// names[0] — names[1] — ... — names[k−1]. cpu[i] configures node i's CPU
// (nil entries or a short slice mean no CPU). Static routes are installed.
// The paper's Figure 1 path (Berkeley → ... NEARnet cores ... → MIT) is a
// chain like this.
func (n *Network) BuildChain(names []string, cpus []*CPUConfig, link LinkConfig) []*Node {
	if len(names) < 2 {
		panic("netsim: a chain needs at least two nodes")
	}
	nodes := make([]*Node, len(names))
	for i, name := range names {
		var cpu *CPUConfig
		if i < len(cpus) {
			cpu = cpus[i]
		}
		nodes[i] = n.NewNode(name, cpu)
	}
	for i := 0; i+1 < len(nodes); i++ {
		n.Connect(nodes[i], nodes[i+1], link)
	}
	n.InstallStaticRoutes()
	return nodes
}

// BuildRandomGraph creates n nodes wired as a uniformly random connected
// graph: a random spanning tree (node i > 0 links to a uniform j < i)
// plus extraEdges additional distinct random edges. cpus[i] configures
// node i (nil or short slice: no CPU). Static routes are NOT installed —
// random graphs exist to exercise the routing protocol's convergence, so
// callers attach agents instead. Returns the nodes and the links. No
// production driver builds one; the routing and linkstate convergence
// tests do.
func (n *Network) BuildRandomGraph(r *rng.Source, count, extraEdges int, cpus []*CPUConfig, link LinkConfig) ([]*Node, []*Link) {
	if count < 2 {
		panic("netsim: a random graph needs at least two nodes")
	}
	nodes := make([]*Node, count)
	for i := range nodes {
		var cpu *CPUConfig
		if i < len(cpus) {
			cpu = cpus[i]
		}
		nodes[i] = n.NewNode("g", cpu)
	}
	var links []*Link
	connected := make(map[[2]int]bool)
	addEdge := func(a, b int) bool {
		if a == b {
			return false
		}
		if a > b {
			a, b = b, a
		}
		key := [2]int{a, b}
		if connected[key] {
			return false
		}
		connected[key] = true
		links = append(links, n.Connect(nodes[a], nodes[b], link))
		return true
	}
	for i := 1; i < count; i++ {
		addEdge(i, r.Intn(i))
	}
	for added := 0; added < extraEdges; {
		if addEdge(r.Intn(count), r.Intn(count)) {
			added++
		} else if len(links) == count*(count-1)/2 {
			break // complete graph; nothing left to add
		}
	}
	return nodes, links
}

// HopDistances returns the hop count from src to every node reachable
// over the current topology (ignoring FIBs), computed by BFS — the
// ground truth the routing and linkstate tests check installed routes
// against. No production code calls it.
func (n *Network) HopDistances(src *Node) map[NodeID]int {
	dist := map[NodeID]int{src.ID: 0}
	queue := []*Node{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, eg := range neighbors(cur) {
			if _, seen := dist[eg.NextHop]; seen {
				continue
			}
			dist[eg.NextHop] = dist[cur.ID] + 1
			queue = append(queue, n.Node(eg.NextHop))
		}
	}
	return dist
}
