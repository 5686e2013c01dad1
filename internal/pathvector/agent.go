package pathvector

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"routesync/internal/des"
	"routesync/internal/jitter"
	"routesync/internal/netsim"
	"routesync/internal/protocol"
)

// Relation labels a neighbor from this AS's perspective: the business
// relationship that drives LOCAL_PREF and Gao–Rexford export policy.
type Relation int8

const (
	// RelCustomer: the peer pays us for transit.
	RelCustomer Relation = iota
	// RelPeer: settlement-free peering.
	RelPeer
	// RelProvider: we pay the peer for transit.
	RelProvider
)

func (r Relation) String() string {
	switch r {
	case RelCustomer:
		return "customer"
	case RelPeer:
		return "peer"
	case RelProvider:
		return "provider"
	}
	return fmt.Sprintf("Relation(%d)", int8(r))
}

// localPref maps the learned-from relation to route preference: prefer
// customer routes (they pay) over peer routes over provider routes (we
// pay) — the standard Gao–Rexford preference. Self-originated prefixes
// outrank everything.
func localPref(r Relation) uint8 {
	switch r {
	case RelCustomer:
		return 100
	case RelPeer:
		return 80
	default:
		return 60
	}
}

// PeerConfig declares one BGP session: the link that carries it and the
// neighbor's relation to this AS.
type PeerConfig struct {
	Link *netsim.Link
	Rel  Relation
}

// MaxOrigins bounds the origin set: the per-peer dirty and
// advertised-state sets are single-word bitsets, which keeps the MRAI
// flush path allocation-free.
const MaxOrigins = 64

// OriginSet is the bounded prefix set: the ASes that originate a prefix,
// each identified by its node id, in the order that indexes every
// agent's RIB. A dense index over 0..max id resolves an id to its
// position without hashing. Build one per scenario and share it
// read-only between every agent (and every logical process).
type OriginSet struct {
	ids []netsim.NodeID
	idx []int8 // idx[id] is id's position in ids, or -1
}

// NewOriginSet builds the set from ids, in order. It panics on a
// negative or duplicate id, and on more than MaxOrigins ids.
func NewOriginSet(ids []netsim.NodeID) *OriginSet {
	if len(ids) > MaxOrigins {
		panic(fmt.Sprintf("pathvector: %d origins exceed MaxOrigins (%d)", len(ids), MaxOrigins))
	}
	maxID := netsim.NodeID(-1)
	for _, id := range ids {
		if id < 0 {
			panic(fmt.Sprintf("pathvector: negative origin id %d", id))
		}
		maxID = max(maxID, id)
	}
	s := &OriginSet{ids: slices.Clone(ids), idx: make([]int8, maxID+1)}
	for i := range s.idx {
		s.idx[i] = -1
	}
	for i, id := range ids {
		if s.idx[id] >= 0 {
			panic(fmt.Sprintf("pathvector: duplicate origin id %d", id))
		}
		s.idx[id] = int8(i)
	}
	return s
}

// Len returns the number of origins.
func (s *OriginSet) Len() int { return len(s.ids) }

// index returns id's position in the set, or -1 when id is not an
// origin. Ids come off the wire, so any value is safe.
func (s *OriginSet) index(id netsim.NodeID) int {
	if uint(id) >= uint(len(s.idx)) {
		return -1
	}
	return int(s.idx[id])
}

// Config assembles a path-vector agent.
type Config struct {
	// Origins is the bounded prefix set (see NewOriginSet). Every agent
	// in the network must share the same set: its order indexes the RIB
	// and the wire's origin ids resolve through it.
	Origins *OriginSet
	// Peers lists the BGP sessions in deterministic order.
	Peers []PeerConfig
	// RefreshPeriod is the periodic re-advertisement interval: each AS
	// re-sends its reachable prefixes to every peer (a soft refresh that
	// renews the neighbor's hold timer), subject to MRAI batching. This
	// is the outer periodic timer the kernel owns.
	RefreshPeriod float64
	// Jitter yields refresh intervals; nil means the deterministic
	// period.
	Jitter jitter.Policy
	// MRAI is the per-peer minimum route advertisement interval: after a
	// flush to a peer, further updates for that peer batch until the
	// interval expires. Zero disables batching (every change sends
	// immediately).
	MRAI float64
	// MRAIJitter yields the per-peer batching intervals; nil means the
	// fixed MRAI. Ignored when MRAI is zero.
	MRAIJitter jitter.Policy
	// PrepareCost / ProcessCost are seconds of CPU to build one update
	// flush and to process one received update message.
	PrepareCost float64
	ProcessCost float64
	// Seed drives the agent's jitter streams.
	Seed int64
}

// Stats counts agent activity.
type Stats struct {
	// Flushes is the number of update messages sent (MRAI rounds).
	Flushes uint64
	// Entries counts the entries inside accepted update messages.
	Entries uint64
	// LoopRejected counts entries dropped because our own AS was already
	// in the path (the path-vector loop-prevention rule).
	LoopRejected uint64
	// BestChanges counts route-selection outcomes that changed the best
	// path for some origin (each one propagates).
	BestChanges uint64
}

// adjSlot is one (origin, peer) cell of the Adj-RIB-In. The AS path the
// peer advertised is hops[off:off+n] of the agent's hop arena, inside a
// run of cap entries the slot owns; has is false when the peer
// advertises nothing. The run outlives clears, expiry and
// re-advertisement, so steady-state integration allocates nothing once
// each slot reaches its high-water length. 16 bytes and no pointer: the
// collector never scans the RIB.
type adjSlot struct {
	updated float64
	off     uint32
	n, cap  uint8 // path length and run length; MaxPathLen fits
	has     bool
}

const (
	bestNone = -1 // origin currently unreachable
	bestSelf = -2 // self-originated
)

type peerState struct {
	link *netsim.Link
	id   netsim.NodeID
	rel  Relation
	// dirty marks origins needing (re)advertisement to this peer; advOut
	// marks origins currently advertised (so transitions to
	// unreachable/unexportable send withdrawals exactly once).
	dirty  uint64
	advOut uint64
	// MRAI batching: while the interval runs (mrai pending), flushes wait
	// for its expiry. A flush only reserves the expiry; flushIdlePeers
	// queues it, as mraiEv, once a change dirties the peer during the
	// interval, so intervals that end with nothing to send cost no event.
	mrai   netsim.Reservation
	mraiEv des.Event
	mraiFn func() // hoisted: one closure per peer per agent lifetime
}

// Agent is one AS's path-vector process: a BGP-like protocol strategy
// over the shared protocol kernel, which owns the refresh timer, CPU
// and crash/restart machinery. MRAI timers are the agent's own — one
// per peer, outside the kernel's single periodic timer.
type Agent struct {
	k   *protocol.Kernel
	cfg Config

	peers []peerState
	// peerIDs holds the neighbors' ids in ascending order and peerAt the
	// matching indexes into peers: receive resolves a sender by binary
	// search (hubs have 100+ sessions).
	peerIDs []netsim.NodeID
	peerAt  []int16
	origins *OriginSet
	selfIdx int  // index of own prefix in origins, or -1
	localUp bool // own prefix currently originated

	adjIn []adjSlot // [origin*len(peers)+peer]
	best  []int16   // [origin] → bestSelf, bestNone, or peer index
	// hops is the arena behind every slot's path, as wire-width hops. A
	// slot that outgrows its run moves to a fresh one at the end; dead
	// counts the entries the moves left behind (see growAdj).
	hops []uint32
	dead int

	stats Stats

	// OnFlush, if set, observes every update message sent: the flush
	// time, the peer, and the entry counts. The MRAI-synchronization
	// experiment clusters these times.
	OnFlush func(t float64, peer netsim.NodeID, advertised, withdrawn int)
	// OnBestChange, if set, observes route-selection changes for origin;
	// Reachable reports the new selection.
	OnBestChange func(origin netsim.NodeID)
}

// NewAgent creates an agent on node. Call Start to begin. It panics on
// an invalid configuration, including two peers that reach the same
// neighbor.
func NewAgent(node *netsim.Node, cfg Config) *Agent {
	if cfg.RefreshPeriod <= 0 {
		panic("pathvector: refresh period must be positive")
	}
	if cfg.Origins == nil || cfg.Origins.Len() == 0 {
		panic("pathvector: empty origin set")
	}
	if cfg.PrepareCost < 0 || cfg.ProcessCost < 0 || cfg.MRAI < 0 {
		panic("pathvector: negative costs or MRAI")
	}
	if len(cfg.Peers) > math.MaxInt16 {
		panic(fmt.Sprintf("pathvector: %d peers exceed %d", len(cfg.Peers), math.MaxInt16))
	}
	if cfg.Jitter == nil {
		cfg.Jitter = jitter.None{Tp: cfg.RefreshPeriod}
	}
	if cfg.MRAI > 0 && cfg.MRAIJitter == nil {
		cfg.MRAIJitter = jitter.None{Tp: cfg.MRAI}
	}
	a := &Agent{
		cfg:     cfg,
		origins: cfg.Origins,
		selfIdx: cfg.Origins.index(node.ID),
	}
	a.localUp = a.selfIdx >= 0
	a.peers = make([]peerState, len(cfg.Peers))
	a.peerAt = make([]int16, len(cfg.Peers))
	for i, pc := range cfg.Peers {
		if pc.Link == nil {
			panic("pathvector: peer without a link")
		}
		peer := pc.Link.Peer(node)
		a.peers[i] = peerState{link: pc.Link, id: peer.ID, rel: pc.Rel}
		a.peerAt[i] = int16(i)
	}
	slices.SortFunc(a.peerAt, func(x, y int16) int { return cmp.Compare(a.peers[x].id, a.peers[y].id) })
	a.peerIDs = make([]netsim.NodeID, len(a.peerAt))
	for i, pi := range a.peerAt {
		a.peerIDs[i] = a.peers[pi].id
		if i > 0 && a.peerIDs[i-1] == a.peerIDs[i] {
			panic(fmt.Sprintf("pathvector: %s has two sessions to neighbor %d", node.Name, a.peerIDs[i]))
		}
	}
	a.adjIn = make([]adjSlot, cfg.Origins.Len()*len(cfg.Peers))
	a.best = make([]int16, cfg.Origins.Len())
	for i := range a.best {
		a.best[i] = bestNone
	}
	if a.selfIdx >= 0 {
		a.best[a.selfIdx] = bestSelf
	}
	a.k = protocol.New(protocol.Config{
		Name:       "pathvector",
		Node:       node,
		Seed:       cfg.Seed ^ int64(node.ID)*0x2545F4914F6CDD1D,
		Jitter:     cfg.Jitter,
		TimerLabel: "pv-refresh",
		RearmLabel: "pv-rearm-wait",
		SweepLabel: "pv-hold-sweep",
		SweepEvery: cfg.RefreshPeriod,
	}, protocol.Hooks{
		Fire:    a.refresh,
		Receive: a.receive,
		Process: a.process,
		Sweep:   a.sweep,
		// A reboot loses the RIB and every session's batching state; the
		// origin set and peer sessions are configuration and survive.
		ResetVolatile: func() { a.resetRIB() },
	})
	for i := range a.peers {
		p := &a.peers[i]
		p.mraiFn = func() { a.onMRAI(p) }
	}
	return a
}

// Node returns the agent's node.
func (a *Agent) Node() *netsim.Node { return a.k.Node() }

// Stats returns a snapshot of the counters.
func (a *Agent) Stats() Stats { return a.stats }

// resetRIB clears the volatile routing state in place: Adj-RIB-In and
// its hop arena, best selections, and per-peer dirty/advertised/MRAI
// state (cancelling any armed MRAI timers).
func (a *Agent) resetRIB() {
	clear(a.adjIn)
	a.hops, a.dead = a.hops[:0], 0
	for o := range a.best {
		a.best[o] = bestNone
	}
	if a.selfIdx >= 0 && a.localUp {
		a.best[a.selfIdx] = bestSelf
	}
	a.cancelMRAIs()
	for i := range a.peers {
		a.peers[i].dirty = 0
		a.peers[i].advOut = 0
	}
}

func (a *Agent) cancelMRAIs() {
	node := a.k.Node()
	for i := range a.peers {
		p := &a.peers[i]
		node.Cancel(p.mraiEv) // a no-op on the zero Event
		p.mrai, p.mraiEv = netsim.Reservation{}, des.Event{}
	}
}

// Start arms the first refresh to fire startOffset seconds from now.
// The initial advertisement of reachable prefixes rides that first
// refresh, so a shared startOffset models the synchronized post-restart
// state exactly as the distance-vector family does.
func (a *Agent) Start(startOffset float64) {
	a.k.StartTimer(startOffset)
	a.k.ScheduleSweep()
}

// Crash models a power failure: the RIB and session batching state are
// lost and the node is marked failed until Restart (see the kernel).
func (a *Agent) Crash() { a.k.Crash() }

// Restart reboots a stopped agent and arms the first refresh
// startOffset seconds from now; after a Crash the agent cold-starts
// from an empty RIB and relies on the neighbors' periodic refreshes to
// relearn paths.
func (a *Agent) Restart(startOffset float64) {
	a.k.Restart()
	a.Start(startOffset)
}

// WithdrawLocal withdraws the agent's own prefix: selection falls back
// to any learned path (none, usually, for the true origin), and the
// withdrawal propagates — the trigger for path-exploration storms. Call
// it from an event executing at the agent's node. No-op unless this AS
// is an origin.
func (a *Agent) WithdrawLocal() {
	if a.selfIdx < 0 || !a.localUp {
		return
	}
	a.localUp = false
	if a.reselect(a.selfIdx, -1) {
		a.flushIdlePeers()
	}
}

// Reachable reports whether the agent currently has a route to origin,
// and the AS-path length (0 for a self-originated prefix).
func (a *Agent) Reachable(origin netsim.NodeID) (bool, int) {
	o := a.origins.index(origin)
	if o < 0 {
		return false, 0
	}
	switch b := a.best[o]; b {
	case bestNone:
		return false, 0
	case bestSelf:
		return true, 0
	default:
		return true, int(a.adj(o, int(b)).n)
	}
}

// refresh is the kernel's periodic fire: re-advertise every reachable
// prefix to every peer (renewing the neighbors' hold timers), subject
// to per-peer MRAI batching, then charge the preparation cost and
// re-arm once the CPU drains — the paper's coupled reset discipline at
// the refresh-timer layer. Refreshes are deliberately not cascaded: a
// neighbor whose RIB is unchanged by our refresh stays silent, so hold
// renewal is Θ(degree) per period, not a network-wide wave.
func (a *Agent) refresh() {
	for o := range a.best {
		if a.best[o] != bestNone {
			a.markDirtyAll(o)
		}
	}
	a.flushIdlePeers()
	a.k.FinishSend(a.cfg.PrepareCost, true)
}

// markDirtyAll marks origin o dirty toward every peer.
func (a *Agent) markDirtyAll(o int) {
	bit := uint64(1) << uint(o)
	for i := range a.peers {
		a.peers[i].dirty |= bit
	}
}

// flushIdlePeers flushes every peer with dirty state whose MRAI
// interval is not running; peers mid-interval keep batching until it
// expires, which is queued here if it was only reserved.
func (a *Agent) flushIdlePeers() {
	node := a.k.Node()
	for i := range a.peers {
		p := &a.peers[i]
		switch {
		case p.dirty == 0:
		case !p.mrai.Pending(node):
			a.flushPeer(p)
		case !p.mrai.Queued():
			p.mraiEv = p.mrai.Queue(node, "pv-mrai", p.mraiFn)
		}
	}
}

// flushPeer builds and sends one update message carrying the peer's
// dirty set — advertisements for exportable reachable origins,
// withdrawals for origins previously advertised and no longer
// exportable — then starts the MRAI interval. A flush whose dirty set
// produces no entries (nothing exportable, nothing to withdraw) draws no
// packet, sends nothing and does not arm the timer.
//
// A first pass decides each dirty origin's entry once and sums the
// message's exact length; the second encodes the entries, in origin
// order, straight into the packet's payload.
func (a *Agent) flushPeer(p *peerState) {
	node := a.k.Node()
	var adv, wdr uint64
	n := headerLen
	for dirty := p.dirty; dirty != 0; dirty &= dirty - 1 {
		o := bits.TrailingZeros64(dirty)
		bit := uint64(1) << uint(o)
		if a.exportable(o, p) {
			adv |= bit
			n += entryFixed + hopLen*(1+len(a.bestPathFor(o)))
		} else if p.advOut&bit != 0 {
			wdr |= bit
			n += entryFixed
		}
	}
	p.dirty = 0
	if adv|wdr == 0 {
		return
	}
	nadv, nwdr := bits.OnesCount64(adv), bits.OnesCount64(wdr)
	pkt, buf := a.k.Begin(p.id, n)
	buf = AppendHeader(buf, node.ID, nadv+nwdr)
	for m := adv | wdr; m != 0; m &= m - 1 {
		o := bits.TrailingZeros64(m)
		if adv&(uint64(1)<<uint(o)) == 0 {
			buf = AppendWithdraw(buf, a.origins.ids[o])
			continue
		}
		var err error
		buf, err = appendAdvertise(buf, a.origins.ids[o], node.ID, a.bestPathFor(o))
		if err != nil {
			panic(err) // paths are bounded by the topology diameter
		}
	}
	p.advOut = p.advOut&^wdr | adv
	a.k.Send(p.link, pkt, buf)
	a.stats.Flushes++
	if a.OnFlush != nil {
		a.OnFlush(node.Now(), p.id, nadv, nwdr)
	}
	if a.cfg.MRAI > 0 {
		// Per-peer MRAI interval through the jitter policy, drawn from the
		// kernel's stream with a per-peer id so PerRouterFixed-style
		// policies decorrelate sessions, not just routers.
		delay := a.cfg.MRAIJitter.Delay(a.k.RNG(), int(node.ID)*8191+int(p.id))
		p.mraiEv = p.mrai.Reserve(node, delay, "pv-mrai", p.mraiFn)
	}
}

// onMRAI fires at a queued MRAI expiration: flush any batched changes
// (restarting the interval), or go idle. On a stopped agent it does
// nothing. That no reserved expiry has to mimic this holds because Crash
// drops every interval and nothing is flushed while the agent is down
// (TestMRAIAcrossCrash).
func (a *Agent) onMRAI(p *peerState) {
	if a.k.Stopped() {
		return
	}
	p.mrai, p.mraiEv = netsim.Reservation{}, des.Event{}
	if p.dirty != 0 {
		a.flushPeer(p)
	}
}

// bestPathFor returns the stored AS path for origin o's best route —
// empty for a self-originated or unreachable prefix. The slice views the
// hop arena: callers must not mutate or keep it.
func (a *Agent) bestPathFor(o int) []uint32 {
	if b := int(a.best[o]); b >= 0 {
		return a.pathOf(a.adj(o, b))
	}
	return nil
}

// adj returns the Adj-RIB-In slot for origin o learned from peer.
func (a *Agent) adj(o, peer int) *adjSlot { return &a.adjIn[o*len(a.peers)+peer] }

// pathOf returns s's stored AS path as a view of the hop arena.
func (a *Agent) pathOf(s *adjSlot) []uint32 { return a.hops[s.off : s.off+uint32(s.n)] }

// exportable applies Gao–Rexford export: self-originated and
// customer-learned routes go to everyone; peer- and provider-learned
// routes go to customers only (we don't provide free transit between
// our providers and peers). A peer already on the path is skipped —
// the sender-side half of loop prevention.
func (a *Agent) exportable(o int, p *peerState) bool {
	b := int(a.best[o])
	switch {
	case b == bestNone:
		return false
	case b == bestSelf:
		return true
	}
	learned := a.peers[b].rel
	if learned != RelCustomer && p.rel != RelCustomer {
		return false
	}
	// Sender-side loop suppression; hop 0 is the peer the best route was
	// learned from, so this also covers never echoing a route back to
	// its source.
	return !slices.Contains(a.pathOf(a.adj(o, b)), uint32(p.id))
}

// receive handles an incoming update: validate the frame, resolve the
// sending peer, and route it through the CPU model. netsim transfers
// packet ownership here; every path ends in ReleasePacket.
func (a *Agent) receive(pkt *netsim.Packet, via netsim.Medium) {
	router, _, err := PeekHeader(pkt.Payload)
	if err != nil {
		a.k.Node().ReleasePacket(pkt)
		return
	}
	i, ok := slices.BinarySearch(a.peerIDs, router)
	if !ok || a.peers[a.peerAt[i]].link != via {
		// Not a configured session (or a spoofed arrival on the wrong
		// link): not our update.
		a.k.Node().ReleasePacket(pkt)
		return
	}
	// The kernel's aux carries the peer index, resolved here so the
	// CPU-completion path needn't re-search.
	a.k.Process(pkt, via, uint64(a.peerAt[i]), a.cfg.ProcessCost)
}

// process is the kernel's processing completion: integrate each entry
// from the peer at index aux, re-run selection for touched origins, and
// propagate changes.
func (a *Agent) process(pkt *netsim.Packet, _ netsim.Medium, aux uint64) {
	if a.k.Stopped() {
		return
	}
	peer := int(aux)
	now := a.k.Node().Now()
	changed := false
	for c := NewCursor(pkt.Payload); c.Next(); {
		a.stats.Entries++
		o := a.origins.index(c.Origin())
		if o < 0 {
			continue // outside the configured origin set
		}
		if c.Withdraw() {
			if a.clearAdj(o, peer) && a.reselect(o, -1) {
				changed = true
			}
			continue
		}
		if a.integrate(o, peer, &c, now) && a.reselect(o, peer) {
			changed = true
		}
	}
	if changed {
		a.flushIdlePeers()
	}
}

// integrate installs one advertised path into Adj-RIB-In[o][peer],
// reporting whether the stored route changed. Loop detection happens
// here: a path already containing our AS is treated as a withdrawal
// from that peer (the route is unusable, and if we previously used it,
// selection must move off it). One walk over the wire path checks for
// the loop, compares against the stored path and overwrites it in
// place; a loop found part-way leaves the slot cleared, so the partial
// write never shows.
func (a *Agent) integrate(o, peer int, c *Cursor, now float64) bool {
	self := uint32(a.k.Node().ID)
	slot := a.adj(o, peer)
	n := c.PathLen()
	same := slot.has && int(slot.n) == n
	if int(slot.cap) < n {
		// same is already false: the stored path is shorter.
		a.growAdj(slot, n)
	}
	path := a.hops[slot.off : int(slot.off)+n]
	for i := range path {
		h := uint32(c.PathAt(i))
		if h == self {
			a.stats.LoopRejected++
			return a.clearAdj(o, peer)
		}
		if path[i] != h {
			path[i] = h
			same = false
		}
	}
	slot.n = uint8(n)
	slot.updated = now
	if same {
		return false // pure refresh: renew the hold timer, change nothing
	}
	slot.has = true
	return true
}

// growAdj gives slot a fresh run of n arena entries at the arena's end;
// its old run turns dead. When dead entries would outnumber live ones,
// the arena is first compacted into a new one, every other slot's run
// copied in slot order, so dead entries never exceed live ones.
func (a *Agent) growAdj(slot *adjSlot, n int) {
	a.dead += int(slot.cap)
	slot.off, slot.cap = 0, 0
	if live := len(a.hops) - a.dead; a.dead > live {
		hops := make([]uint32, 0, live+n)
		for i := range a.adjIn {
			s := &a.adjIn[i]
			run := a.hops[s.off : s.off+uint32(s.cap)]
			s.off = uint32(len(hops))
			hops = append(hops, run...)
		}
		a.hops, a.dead = hops, 0
	}
	slot.off, slot.cap = uint32(len(a.hops)), uint8(n)
	a.hops = append(a.hops, make([]uint32, n)...)
}

// clearAdj removes Adj-RIB-In[o][peer], reporting whether it existed.
// The slot keeps its arena run for the next advertisement.
func (a *Agent) clearAdj(o, peer int) bool {
	slot := a.adj(o, peer)
	if !slot.has {
		return false
	}
	slot.has, slot.n = false, 0
	return true
}

// reselect re-runs route selection for origin o: highest LOCAL_PREF
// (customer > peer > provider), then shortest AS path, then lowest
// neighbor id — deterministic and independent of arrival order. touched
// is the peer whose adj-in slot the triggering change rewrote (so a
// content change under a stable winner still propagates), or -1 for
// removals and local origination toggles, whose effect is fully visible
// in the winner's identity. It reports whether the advertised best
// route changed, marking the origin dirty toward every peer when it
// did.
func (a *Agent) reselect(o, touched int) bool {
	prev := int(a.best[o])
	next := bestNone
	if a.selfIdx == o && a.localUp {
		next = bestSelf
	} else {
		var bPref uint8
		var bLen int
		for i := range a.peers {
			slot := a.adj(o, i)
			if !slot.has {
				continue
			}
			pref, plen := localPref(a.peers[i].rel), int(slot.n)
			if next == bestNone || pref > bPref || (pref == bPref && (plen < bLen ||
				(plen == bLen && a.peers[i].id < a.peers[next].id))) {
				next, bPref, bLen = i, pref, plen
			}
		}
	}
	if next == prev && (prev < 0 || touched != prev) {
		// Same winner and the change was elsewhere (a losing slot, or a
		// removal that by construction wasn't the winner): the advertised
		// route is untouched.
		return false
	}
	a.best[o] = int16(next)
	a.stats.BestChanges++
	a.markDirtyAll(o)
	if a.OnBestChange != nil {
		a.OnBestChange(a.origins.ids[o])
	}
	return true
}

// holdFactor: adj-in routes unrefreshed for holdFactor·RefreshPeriod are
// expired as implicit withdrawals (the hold timer).
const holdFactor = 4

// sweep expires adj-in routes unrefreshed past the hold time — implicit
// withdrawals from dead or partitioned peers — and propagates any
// resulting selection changes. The kernel schedules it every
// RefreshPeriod.
func (a *Agent) sweep() {
	now := a.k.Node().Now()
	hold := holdFactor * a.cfg.RefreshPeriod
	changed := false
	np := len(a.peers)
	for o := range a.best {
		row := a.adjIn[o*np : (o+1)*np]
		touched := false
		for p := range row {
			if row[p].has && now-row[p].updated > hold {
				row[p].has, row[p].n = false, 0
				touched = true
			}
		}
		if touched && a.reselect(o, -1) {
			changed = true
		}
	}
	if changed {
		a.flushIdlePeers()
	}
}
