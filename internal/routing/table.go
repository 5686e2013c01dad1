package routing

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"

	"routesync/internal/netsim"
)

// Route is one routing-table entry. It holds no pointer: the medium a
// route was learned on is an index into its table's interned media (see
// Table.Via), so a table is one flat array the garbage collector never
// scans.
type Route struct {
	Dest    netsim.NodeID
	NextHop netsim.NodeID
	// Updated is the last time this route was installed or refreshed.
	Updated float64
	Metric  uint32
	// Via indexes the table's interned media; Table.Via resolves it.
	Via uint16
	// Local marks the router's own address (metric 0, never expires).
	Local bool
}

// Table is a distance-vector routing table: one []Route sorted by
// destination and held by value. Lookups are binary searches, or a short
// forward step when an update's entries arrive in destination order (as
// an Update emits them); inserts shift the tail, and Expire compacts
// the array in place. Updates go straight between the table and wire
// bytes, and result lists are retained scratch, so the steady-state
// update cycle — append an update, apply one, expire — allocates nothing
// once the table and buffers have reached their high-water sizes.
type Table struct {
	routes []Route
	// media interns the media routes were learned on; Route.Via indexes
	// it. Entry 0 is the nil medium of local routes.
	media    []netsim.Medium
	infinity uint32
	holdDown float64
	holdTill map[netsim.NodeID]float64
	// oldest is at most every non-local route's Updated (+Inf in an empty
	// table): inserts lower it, refreshes only raise Updated as time
	// runs forward, and each Expire walk recomputes it exactly. Expire
	// skips the walk while no route can be old enough to age.
	oldest float64

	// inst/unre back ApplyResult's slices; expU/expD back Expire's.
	inst       []int32
	unre       []netsim.NodeID
	expU, expD []netsim.NodeID
}

// NewTable creates a table with the given unreachable metric.
func NewTable(infinity uint32) *Table {
	return &Table{
		media:    []netsim.Medium{nil},
		infinity: infinity,
		holdTill: make(map[netsim.NodeID]float64),
		oldest:   math.Inf(1),
	}
}

// SetHoldDown enables IGRP-style hold-down: after a destination becomes
// unreachable, better news from a different next hop is rejected for d
// seconds. Zero disables.
func (t *Table) SetHoldDown(d float64) {
	if d < 0 {
		panic("routing: negative hold-down")
	}
	t.holdDown = d
}

// HeldDown reports whether dest is inside its hold-down window at time
// now.
func (t *Table) HeldDown(dest netsim.NodeID, now float64) bool {
	if len(t.holdTill) == 0 {
		return false
	}
	return now < t.holdTill[dest]
}

func (t *Table) startHold(dest netsim.NodeID, now float64) {
	if t.holdDown > 0 {
		t.holdTill[dest] = now + t.holdDown
	}
}

// Infinity returns the unreachable metric.
func (t *Table) Infinity() uint32 { return t.infinity }

// Len returns the number of entries, including unreachable ones awaiting
// garbage collection.
func (t *Table) Len() int { return len(t.routes) }

// Get returns the route for dest, or nil. The pointer aims into the
// table and is valid until the next call that changes it.
func (t *Table) Get(dest netsim.NodeID) *Route {
	if i, ok := search(t.routes, dest); ok {
		return &t.routes[i]
	}
	return nil
}

// At returns the route at index i of the destination-sorted table, as
// ApplyResult.Installed names it. The pointer is valid until the next
// call that changes the table.
func (t *Table) At(i int32) *Route { return &t.routes[i] }

// Via returns the medium r was learned on (nil for the local route).
func (t *Table) Via(r *Route) netsim.Medium { return t.media[r.Via] }

// search returns the index of the first route in rs whose destination
// is not below dest, and whether that route is dest's.
func search(rs []Route, dest netsim.NodeID) (int, bool) {
	lo, hi := 0, len(rs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if rs[m].Dest < dest {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(rs) && rs[lo].Dest == dest
}

// seek finds dest starting from hint, the index just past the previous
// lookup. Entries in ascending destination order land at or a few slots
// past hint; anything else falls back to a binary search.
func (t *Table) seek(dest netsim.NodeID, hint int) (int, bool) {
	rs := t.routes
	if hint > 0 && rs[hint-1].Dest >= dest {
		return search(rs, dest)
	}
	for end := min(hint+4, len(rs)); hint < end; hint++ {
		if d := rs[hint].Dest; d >= dest {
			return hint, d == dest
		}
	}
	i, ok := search(rs[hint:], dest)
	return hint + i, ok
}

// medium returns via's index in the interned media, adding it on first
// sight.
func (t *Table) medium(via netsim.Medium) uint16 {
	for i, m := range t.media {
		if m == via {
			return uint16(i)
		}
	}
	if len(t.media) > 1<<16-1 {
		panic("routing: more than 65535 media")
	}
	t.media = append(t.media, via)
	return uint16(len(t.media) - 1)
}

// SetLocal installs the router's own address with metric 0.
func (t *Table) SetLocal(self netsim.NodeID, now float64) {
	r := Route{Dest: self, NextHop: self, Updated: now, Local: true}
	if i, ok := search(t.routes, self); ok {
		t.routes[i] = r
	} else {
		t.routes = slices.Insert(t.routes, i, r)
	}
}

// Routes returns a copy of the entries sorted by destination (dumps,
// tests). Hot paths use NewUpdate, which reads the table in place.
func (t *Table) Routes() []Route { return slices.Clone(t.routes) }

// Reset clears the table in place for a cold restart (router crash):
// the routes and hold-down windows are dropped, while the route array,
// interned media and scratch buffers keep their capacity for the next
// life. The configured infinity and hold-down are retained.
func (t *Table) Reset() {
	t.routes = t.routes[:0]
	t.oldest = math.Inf(1)
	clear(t.holdTill)
}

// ApplyResult reports what an incoming update changed.
//
// Installed and Unreachable are backed by scratch the table reuses: they
// are valid until the next ApplyCost call on the same table, which
// is the lifetime every caller needs (agents react to the result before
// processing the next update).
type ApplyResult struct {
	// Changed is true if any route was added, improved, or re-costed.
	Changed bool
	// Worsened is true if any route's metric increased (including to
	// infinity) — the trigger condition for a triggered update.
	Worsened bool
	// Installed lists, by their index in the table (see Table.At), the
	// routes whose forwarding entry must be (re)programmed into the node
	// FIB. An update naming a destination twice lists it twice, and a
	// later entry may have made it unreachable again.
	Installed []int32
	// Unreachable lists destinations that just became unreachable.
	Unreachable []netsim.NodeID

	// top is one past the largest index in Installed: an insert at or
	// above it moves none of the installed routes.
	top int
}

// install records that the route at index i was (re)programmed.
func (res *ApplyResult) install(i int) {
	res.Installed = append(res.Installed, int32(i))
	res.top = max(res.top, i+1)
}

// ApplyCost folds one neighbor's update into the table (Bellman–Ford with
// the "believe your next hop" rule): the advertised metric plus the
// ingress link cost — the metric charged for the hop to the advertising
// neighbor — capped at infinity. payload is the update's wire bytes,
// already validated by PeekHeader; the entries are read in place, in
// message order, after the sender's own route. via is the medium the
// update arrived on, now the current time. The agent counts hops and
// charges cost 1; a delay- or bandwidth-weighted metric would charge
// more for slower media. Cost must be at least 1 (a zero-cost hop would
// allow counting loops that never age).
func (t *Table) ApplyCost(payload []byte, via netsim.Medium, now float64, cost uint32) ApplyResult {
	if cost < 1 {
		panic("routing: link cost must be at least 1")
	}
	var res ApplyResult
	res.Installed = t.inst[:0]
	res.Unreachable = t.unre[:0]
	from := netsim.NodeID(binary.BigEndian.Uint32(payload[4:]))
	vi := t.medium(via)

	// The neighbor itself is reachable at one hop — distance-vector
	// protocols learn adjacency from the updates themselves.
	i, ok := search(t.routes, from)
	t.applyOne(i, ok, Entry{Dest: from, Metric: 0}, from, vi, now, cost, &res)

	next := 0
	body := payload[headerLen : headerLen+entryLen*int(binary.BigEndian.Uint16(payload[8:]))]
	for ; len(body) >= entryLen; body = body[entryLen:] {
		e := Entry{
			Dest:   netsim.NodeID(binary.BigEndian.Uint32(body)),
			Metric: binary.BigEndian.Uint32(body[4:]),
		}
		if e.Dest == from {
			continue // the neighbor's self-route was handled above
		}
		i, ok := t.seek(e.Dest, next)
		next = t.applyOne(i, ok, e, from, vi, now, cost, &res)
	}
	// Keep the (possibly grown) backing arrays for the next call.
	t.inst = res.Installed
	t.unre = res.Unreachable
	return res
}

// applyOne folds entry e into the route at index i (present when ok;
// otherwise i is where e.Dest would be inserted) and returns the index
// just past e.Dest's place, the hint for the next entry.
func (t *Table) applyOne(i int, ok bool, e Entry, from netsim.NodeID, via uint16, now float64, cost uint32, res *ApplyResult) int {
	cand := e.Metric + cost
	if cand > t.infinity || cand < e.Metric { // cap, guard overflow
		cand = t.infinity
	}
	if !ok {
		if cand >= t.infinity {
			return i // don't learn unreachable routes
		}
		if t.HeldDown(e.Dest, now) {
			return i // hold-down: distrust resurrection rumors
		}
		t.routes = slices.Insert(t.routes, i, Route{Dest: e.Dest, Metric: cand, NextHop: from, Via: via, Updated: now})
		t.oldest = min(t.oldest, now)
		if i < res.top {
			// The insert moved the routes from i on up by one, some
			// installed earlier in this update among them.
			for k, p := range res.Installed {
				if int(p) >= i {
					res.Installed[k] = p + 1
				}
			}
			res.top++
		}
		res.Changed = true
		res.install(i)
		return i + 1
	}
	cur := &t.routes[i]
	switch {
	case cur.Local:
		// never replace our own address
	case cur.NextHop == from:
		// Updates from the current next hop are always believed — this
		// is how bad news propagates. Repeated unreachable
		// advertisements do not refresh the entry, so garbage
		// collection can reclaim dead routes (RFC 1058 §3.6 deletion
		// semantics).
		if cand < t.infinity {
			cur.Updated = now
		}
		cur.Via = via
		if cand != cur.Metric {
			if cand > cur.Metric {
				res.Worsened = true
			}
			cur.Metric = cand
			res.Changed = true
			if cand >= t.infinity {
				t.startHold(e.Dest, now)
				res.Unreachable = append(res.Unreachable, e.Dest)
			} else {
				res.install(i)
			}
		}
	case cand < cur.Metric:
		if t.HeldDown(e.Dest, now) && cur.Metric >= t.infinity {
			// hold-down: an unreachable destination stays down until
			// the hold expires, whatever other neighbors claim
			break
		}
		cur.Metric = cand
		cur.NextHop = from
		cur.Via = via
		cur.Updated = now
		res.Changed = true
		res.install(i)
	}
	return i + 1
}

// Expire ages routes: entries unrefreshed for longer than timeout are
// marked unreachable; unreachable entries older than gcAfter are deleted.
// It returns the destinations that just became unreachable (for triggered
// updates) and those deleted, each in ascending order. Like
// ApplyResult's slices, both returned lists are scratch-backed and valid
// until the next Expire call. While even the oldest route is within both
// ages, nothing can age and the table is not walked.
func (t *Table) Expire(now, timeout, gcAfter float64) (newlyUnreachable, deleted []netsim.NodeID) {
	newlyUnreachable = t.expU[:0]
	deleted = t.expD[:0]
	if now-t.oldest <= min(timeout, gcAfter) {
		return newlyUnreachable, deleted
	}
	oldest := math.Inf(1)
	n := 0 // routes kept so far, compacted to the front
	for i := range t.routes {
		r := &t.routes[i]
		if !r.Local {
			age := now - r.Updated
			if r.Metric >= t.infinity {
				if age > gcAfter {
					deleted = append(deleted, r.Dest)
					continue
				}
			} else if age > timeout {
				r.Metric = t.infinity
				t.startHold(r.Dest, now)
				newlyUnreachable = append(newlyUnreachable, r.Dest)
			}
			oldest = min(oldest, r.Updated)
		}
		if n != i {
			t.routes[n] = *r
		}
		n++
	}
	t.routes = t.routes[:n]
	t.oldest = oldest
	t.expU = newlyUnreachable
	t.expD = deleted
	return newlyUnreachable, deleted
}

// String renders the table for diagnostics, one route per line, sorted
// by destination.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "routing table (%d routes, infinity %d)\n", len(t.routes), t.infinity)
	for _, r := range t.Routes() {
		flag := ""
		if r.Local {
			flag = " local"
		}
		metric := fmt.Sprintf("%d", r.Metric)
		if r.Metric >= t.infinity {
			metric = "unreachable"
		}
		fmt.Fprintf(&b, "  dest %-6d metric %-11s via %-6d updated %.2f%s\n",
			r.Dest, metric, r.NextHop, r.Updated, flag)
	}
	return b.String()
}

// Update is router's full-table update for one medium, cut into
// messages of at most MaxEntries entries each, as RIP cuts a large
// table into several packets. Table.NewUpdate counts the entries, so
// each message's exact length is known before it is written: an agent
// sizes the packet's payload with Len, then writes the message into it
// with Append. The table must not change until every message is
// written.
type Update struct {
	t      *Table
	router netsim.NodeID
	flags  byte
	split  int // media index split horizon acts on; -1 for none
	poison bool
	msgs   int // messages not yet written
	left   int // entries not yet written
	next   int // next route index; past the routes, len(routes)+synthetic index
}

// NewUpdate starts router's full-table update for medium `on`, in
// EncodeInto's wire format: split horizon, when enabled, omits routes
// learned over `on`, or with poison reverse advertises them as
// unreachable; local routes carry metric 0. extra synthetic routes
// follow, advertised as unreachable-1 so they never win over real ones;
// they make update preparation and processing cost realistic (the PARC
// routers carried ~300 routes). An update always has at least one
// message, even one with no entries.
func (t *Table) NewUpdate(router netsim.NodeID, triggered bool, on netsim.Medium, splitHorizon, poisonReverse bool, extra int) Update {
	u := Update{t: t, router: router, split: -1, poison: poisonReverse}
	if triggered {
		u.flags = flagTriggered
	}
	if splitHorizon {
		u.split = slices.Index(t.media, on)
	}
	n := len(t.routes) + extra
	if u.split >= 0 && !poisonReverse {
		for i := range t.routes {
			if r := &t.routes[i]; int(r.Via) == u.split && !r.Local {
				n--
			}
		}
	}
	u.left = n
	u.msgs = max(1, (u.left+MaxEntries-1)/MaxEntries)
	return u
}

// More reports whether a message remains to be written.
func (u *Update) More() bool { return u.msgs > 0 }

// Len returns the byte length of the next message.
func (u *Update) Len() int { return headerLen + entryLen*min(u.left, MaxEntries) }

// Append appends the next message — exactly Len bytes — to dst, walking
// the table from where the previous message stopped.
func (u *Update) Append(dst []byte) []byte {
	t := u.t
	count := min(u.left, MaxEntries)
	dst = binary.BigEndian.AppendUint16(dst, magic)
	dst = append(dst, version, u.flags)
	dst = binary.BigEndian.AppendUint32(dst, uint32(u.router))
	dst = binary.BigEndian.AppendUint16(dst, uint16(count))
	dst = append(dst, 0, 0) // reserved
	u.left -= count
	u.msgs--
	routes, split, poison := t.routes, u.split, u.poison
	i := u.next
	for ; count > 0 && i < len(routes); i++ {
		r := &routes[i]
		metric := r.Metric
		if int(r.Via) == split && !r.Local {
			if !poison {
				continue
			}
			metric = t.infinity
		}
		dst = binary.BigEndian.AppendUint32(dst, uint32(r.Dest))
		dst = binary.BigEndian.AppendUint32(dst, metric)
		count--
	}
	base := netsim.NodeID(1<<20) + u.router*MaxEntries // far outside real node-id space
	for ; count > 0; i++ {
		dst = binary.BigEndian.AppendUint32(dst, uint32(base+netsim.NodeID(i-len(routes))))
		dst = binary.BigEndian.AppendUint32(dst, t.infinity-1)
		count--
	}
	u.next = i
	return dst
}
