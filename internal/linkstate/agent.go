package linkstate

import (
	"fmt"
	"math"
	"sort"

	"routesync/internal/jitter"
	"routesync/internal/netsim"
	"routesync/internal/protocol"
)

// Config assembles a link-state agent.
type Config struct {
	// RefreshPeriod is the LSA re-origination interval Tp in seconds
	// (OSPF: 1800; the experiments use shorter periods to keep
	// simulations tractable — the dynamics scale with Tp).
	RefreshPeriod float64
	// Jitter yields refresh intervals; nil means the deterministic
	// period.
	Jitter jitter.Policy
	// PrepareCost / ProcessCost are seconds of CPU to originate and to
	// handle one LSA (flooding work).
	PrepareCost float64
	ProcessCost float64
	// Seed drives the agent's jitter stream.
	Seed int64
}

type lsdbEntry struct {
	lsa     LSA
	updated float64
}

// spfQE is one BFS queue entry: a node and the first hop that reaches it.
type spfQE struct {
	id    netsim.NodeID
	first netsim.NodeID
}

// Agent is one router's link-state process: a link-state protocol
// strategy over the shared protocol kernel, which owns the timer, CPU
// and crash/restart machinery.
type Agent struct {
	k   *protocol.Kernel
	cfg Config

	lsdb map[netsim.NodeID]lsdbEntry
	seq  uint32

	// nbrCache holds the sorted adjacency list, valid while nbrVer
	// matches the network topology version. Callers must not mutate it;
	// rebuilds allocate a fresh slice because the previous one may be
	// retained inside LSAs already installed in LSDBs.
	nbrCache []netsim.NodeID
	nbrVer   uint64
	nbrOK    bool

	// fibOK/fibVer record whether the FIB reflects the current LSDB and
	// topology; a refresh LSA whose content is unchanged skips the SPF
	// run entirely when they are current.
	fibOK  bool
	fibVer uint64

	// SPF scratch, reused across runs.
	adjRows  [][]netsim.NodeID
	visited  []bool
	spfQueue []spfQE

	// OnSend, if set, observes every LSA origination (for cluster
	// detection in experiments).
	OnSend func(t float64)
}

// NewAgent creates an agent on node. Call Start to begin originating.
func NewAgent(node *netsim.Node, cfg Config) *Agent {
	if cfg.RefreshPeriod <= 0 {
		panic("linkstate: refresh period must be positive")
	}
	if cfg.PrepareCost < 0 || cfg.ProcessCost < 0 {
		panic("linkstate: negative costs")
	}
	if cfg.Jitter == nil {
		cfg.Jitter = jitter.None{Tp: cfg.RefreshPeriod}
	}
	a := &Agent{
		cfg:  cfg,
		lsdb: make(map[netsim.NodeID]lsdbEntry),
	}
	a.k = protocol.New(protocol.Config{
		Name:       "linkstate",
		Node:       node,
		Seed:       cfg.Seed ^ int64(node.ID)*0x5DEECE66D,
		Jitter:     cfg.Jitter,
		TimerLabel: "lsa-refresh",
		RearmLabel: "lsa-rearm-wait",
		SweepLabel: "lsa-sweep",
		SweepEvery: cfg.RefreshPeriod,
	}, protocol.Hooks{
		Fire:    a.originate,
		Receive: a.receive,
		Process: a.process,
		Sweep:   a.sweep,
		// A power failure loses the in-memory database and the derived
		// caches; the sequence number survives (real implementations
		// persist or recover it so post-reboot LSAs win over stale
		// copies still flooding around).
		ResetVolatile: func() {
			for origin := range a.lsdb {
				delete(a.lsdb, origin)
			}
			a.nbrOK = false
			a.fibOK = false
		},
	})
	return a
}

// Node returns the agent's node.
func (a *Agent) Node() *netsim.Node { return a.k.Node() }

// Crash models a power failure mid-run: the LSDB, neighbor cache and
// FIB are lost and the node is marked failed until Restart; see the
// kernel's Crash.
func (a *Agent) Crash() { a.k.Crash() }

// Restart reboots a stopped agent and arms the first refresh
// startOffset seconds from now; see the kernel's Restart. The agent's
// first origination floods a fresh LSA whose sequence number continues
// from the previous life, so neighbors adopt it over stale copies.
func (a *Agent) Restart(startOffset float64) {
	a.k.Restart()
	a.Start(startOffset)
}

// neighbors lists the adjacent node ids over all attached media, sorted.
// The result is cached against the network topology version — refresh
// originations on a static topology reuse it — and must not be mutated:
// it is retained inside LSAs installed in LSDBs across the network.
func (a *Agent) neighbors() []netsim.NodeID {
	node := a.k.Node()
	if ver := node.Net().TopologyVersion(); !a.nbrOK || a.nbrVer != ver {
		seen := map[netsim.NodeID]bool{}
		for _, m := range node.Media() {
			switch t := m.(type) {
			case *netsim.Link:
				if !t.Down() {
					seen[t.Peer(node).ID] = true
				}
			case *netsim.LAN:
				for _, member := range t.Members() {
					if member != node {
						seen[member.ID] = true
					}
				}
			}
		}
		out := make([]netsim.NodeID, 0, len(seen))
		for id := range seen {
			out = append(out, id)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		a.nbrCache, a.nbrVer, a.nbrOK = out, ver, true
	}
	return a.nbrCache
}

// fibCurrent reports whether the FIB still reflects the LSDB and the
// live topology.
func (a *Agent) fibCurrent() bool {
	return a.fibOK && a.fibVer == a.k.Node().Net().TopologyVersion()
}

// idsEqual compares two sorted adjacency lists.
func idsEqual(a, b []netsim.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Start arms the first refresh to fire startOffset seconds from now.
func (a *Agent) Start(startOffset float64) {
	a.k.StartTimer(startOffset)
	a.k.ScheduleSweep()
}

// originate builds, installs and floods the router's own LSA, then
// re-arms the refresh timer after the CPU drains — the paper's coupled
// reset discipline carried over to link-state refreshes. A refresh whose
// adjacency is unchanged leaves the FIB alone: the SPF input is
// identical, so the output would be too.
func (a *Agent) originate() {
	node := a.k.Node()
	a.seq++
	nbrs := a.neighbors()
	lsa := LSA{Origin: node.ID, Seq: a.seq, Neighbors: nbrs}
	now := node.Now()
	prev, had := a.lsdb[node.ID]
	a.lsdb[node.ID] = lsdbEntry{lsa: lsa, updated: now}
	a.flood(lsa)
	if !had || !idsEqual(nbrs, prev.lsa.Neighbors) || !a.fibCurrent() {
		a.recompute()
	}
	if a.OnSend != nil {
		a.OnSend(now)
	}
	a.k.FinishSend(a.cfg.PrepareCost, true)
}

// flood transmits the router's own LSA on every medium, encoding it
// straight into each packet's payload. Encoding is as cheap as the copy
// re-flooding makes, and writing each packet from the LSA needs no
// other packet still held: a synchronous drop (a down link) releases a
// packet as it is sent.
func (a *Agent) flood(lsa LSA) {
	node := a.k.Node()
	n := headerLen + neighLen*len(lsa.Neighbors)
	for i, nm := 0, node.NumMedia(); i < nm; i++ {
		pkt, buf := a.k.Begin(netsim.Broadcast, n)
		payload, err := EncodeInto(buf, lsa)
		if err != nil {
			panic(err) // own adjacency lists are bounded by the topology
		}
		a.k.Send(node.MediumAt(i), pkt, payload)
	}
}

// reflood transmits a received LSA on every medium except the one it
// arrived on, copying its bytes into each outgoing packet — EncodeInto
// is canonical, so re-encoding the decoded LSA would reproduce them
// anyway. The incoming packet stays the agent's until processing ends,
// so its payload outlives the loop.
func (a *Agent) reflood(payload []byte, except netsim.Medium) {
	node := a.k.Node()
	for i, nm := 0, node.NumMedia(); i < nm; i++ {
		m := node.MediumAt(i)
		if m == except {
			continue
		}
		pkt, buf := a.k.Begin(netsim.Broadcast, len(payload))
		a.k.Send(m, pkt, append(buf, payload...))
	}
}

// receive handles an incoming LSA: CPU cost, dedup by sequence number,
// store + re-flood + SPF when new. Only the fixed-size header is decoded
// here; the duplicate path — the common case on a broadcast segment —
// never touches the neighbor list. netsim transfers packet ownership
// here; every path ends in ReleasePacket — immediately for malformed
// frames and synchronous processing, or from the kernel's work handler
// once the CPU finishes for queued work.
func (a *Agent) receive(pkt *netsim.Packet, via netsim.Medium) {
	origin, seq, err := PeekHeader(pkt.Payload)
	if err != nil {
		a.k.Node().ReleasePacket(pkt)
		return
	}
	// The kernel's aux packs origin above seq, so the completion
	// needn't re-parse; a wider origin would alias another router's.
	if uint64(origin) > math.MaxUint32 {
		panic(fmt.Sprintf("linkstate: origin %d does not fit in 32 bits", origin))
	}
	a.k.Process(pkt, via, uint64(origin)<<32|uint64(seq), a.cfg.ProcessCost)
}

// process is the kernel's processing completion: integrate the LSA
// using the header fields receive packed into aux.
func (a *Agent) process(pkt *netsim.Packet, via netsim.Medium, aux uint64) {
	a.integrate(pkt.Payload, netsim.NodeID(aux>>32), uint32(aux), via)
}

func (a *Agent) integrate(payload []byte, origin netsim.NodeID, seq uint32, via netsim.Medium) {
	if a.k.Stopped() {
		return
	}
	node := a.k.Node()
	if origin == node.ID {
		return // our own LSA echoed back
	}
	now := node.Now()
	cur, ok := a.lsdb[origin]
	if ok && seq <= cur.lsa.Seq {
		// Stale or duplicate: refresh the age on an exact duplicate (the
		// origin is alive), never re-flood.
		if seq == cur.lsa.Seq {
			cur.updated = now
			a.lsdb[origin] = cur
		}
		return
	}
	if ok && WireNeighborsEqual(payload, cur.lsa.Neighbors) {
		// Refresh: a newer sequence number over unchanged content. The
		// SPF input is identical, so the routes are too — keep the
		// stored neighbor list, bump seq and age, and re-flood.
		cur.lsa.Seq = seq
		cur.updated = now
		a.lsdb[origin] = cur
		a.reflood(payload, via)
		if !a.fibCurrent() {
			a.recompute()
		}
		return
	}
	lsa, err := Decode(payload)
	if err != nil {
		// PeekHeader accepted this frame, and FuzzLinkStateDecode holds
		// the two decoders to the same verdict.
		panic(fmt.Sprintf("linkstate: LSA from %d passed PeekHeader but not Decode: %v", origin, err))
	}
	a.lsdb[origin] = lsdbEntry{lsa: lsa, updated: now}
	a.reflood(payload, via)
	a.recompute()
}

// recompute reruns SPF and programs the node FIB with first hops. An
// adjacency is used only when both endpoints advertise it (the
// OSPF bidirectional check), so stale one-sided claims — e.g. a live
// neighbor still listing a dead router whose own LSA has aged out —
// never install routes.
//
// The BFS runs over slice-indexed scratch state reused across runs (node
// ids are dense in [0, NumNodes)), not maps: SPF used to dominate the
// link-state experiment's profile through map traffic alone. LSAs naming
// ids outside the network are ignored, as the bidirectional check would
// reject them anyway.
func (a *Agent) recompute() {
	node := a.k.Node()
	net := node.Net()
	n := net.NumNodes()
	if cap(a.adjRows) < n {
		a.adjRows = make([][]netsim.NodeID, n)
		a.visited = make([]bool, n)
	}
	adj := a.adjRows[:n]
	visited := a.visited[:n]
	for i := range adj {
		adj[i] = nil
		visited[i] = false
	}
	for origin, e := range a.lsdb {
		if int(origin) >= 0 && int(origin) < n {
			adj[origin] = e.lsa.Neighbors
		}
	}
	// The router's own row comes from the live topology, not its stored
	// LSA, so local changes take effect before the next origination.
	adj[node.ID] = a.neighbors()
	claims := func(id, nb netsim.NodeID) bool {
		for _, x := range adj[id] {
			if x == nb {
				return true
			}
		}
		return false
	}
	inRange := func(id netsim.NodeID) bool { return int(id) >= 0 && int(id) < n }

	queue := a.spfQueue[:0]
	visited[node.ID] = true
	for _, nb := range adj[node.ID] {
		if !inRange(nb) || !claims(nb, node.ID) {
			continue
		}
		visited[nb] = true
		queue = append(queue, spfQE{id: nb, first: nb})
		a.installRoute(nb, nb)
	}
	for qi := 0; qi < len(queue); qi++ {
		cur := queue[qi]
		for _, nb := range adj[cur.id] {
			if !inRange(nb) || visited[nb] || !claims(nb, cur.id) {
				continue
			}
			visited[nb] = true
			a.installRoute(nb, cur.first)
			queue = append(queue, spfQE{id: nb, first: cur.first})
		}
	}
	a.spfQueue = queue[:0]
	// Withdraw FIB entries that SPF no longer reaches.
	node.RetainRoutes(visited)
	a.fibOK = true
	a.fibVer = net.TopologyVersion()
}

// installRoute programs dest via the medium that reaches firstHop.
func (a *Agent) installRoute(dest, firstHop netsim.NodeID) {
	node := a.k.Node()
	for i, nm := 0, node.NumMedia(); i < nm; i++ {
		m := node.MediumAt(i)
		switch t := m.(type) {
		case *netsim.Link:
			if !t.Down() && t.Peer(node).ID == firstHop {
				node.SetRoute(dest, m, firstHop)
				return
			}
		case *netsim.LAN:
			for j, nj := 0, t.NumMembers(); j < nj; j++ {
				if t.Member(j).ID == firstHop {
					node.SetRoute(dest, m, firstHop)
					return
				}
			}
		}
	}
}

// maxAgeFactor: LSAs unrefreshed for maxAgeFactor·RefreshPeriod are
// withdrawn from the database (OSPF MaxAge).
const maxAgeFactor = 4

// sweep ages the database: entries unrefreshed past MaxAge are
// withdrawn and routes recomputed. The kernel schedules it every
// RefreshPeriod.
func (a *Agent) sweep() {
	node := a.k.Node()
	now := node.Now()
	maxAge := maxAgeFactor * a.cfg.RefreshPeriod
	changed := false
	for origin, e := range a.lsdb {
		if origin == node.ID {
			continue
		}
		if now-e.updated > maxAge {
			delete(a.lsdb, origin)
			node.ClearRoute(origin)
			changed = true
		}
	}
	if changed {
		a.recompute() // also withdraws FIB entries SPF no longer reaches
	}
}
