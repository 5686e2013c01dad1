package routing

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"routesync/internal/netsim"
)

// refRoute is one entry of refTable.
type refRoute struct {
	Dest    netsim.NodeID
	Metric  uint32
	NextHop netsim.NodeID
	Via     netsim.Medium
	// Updated is the last time this route was installed or refreshed.
	Updated float64
	// Local marks the router's own address (metric 0, never expires).
	Local bool
}

// refTable is the map-based distance-vector table that Table replaced,
// kept as the differential oracle for FuzzRoutingTable: routes are
// pointers in a map keyed by destination, with a lazily rebuilt sorted
// view for export and a free list of recycled structs. Its behaviour is
// the specification the flat table must reproduce.
type refTable struct {
	routes   map[netsim.NodeID]*refRoute
	infinity uint32
	holdDown float64
	holdTill map[netsim.NodeID]float64

	// sorted caches the destination-ordered route list; inserts and
	// deletes invalidate it (metric/refresh changes keep the order).
	sorted   []*refRoute
	sortedOK bool
	// free recycles refRoute structs deleted by Expire or Reset.
	free []*refRoute
	// inst/unre back refApplyResult's slices; expU/expD back Expire's.
	inst, unre []netsim.NodeID
	expU, expD []netsim.NodeID
}

// refApplyResult is ApplyResult with the installed routes named by
// destination.
type refApplyResult struct {
	Changed, Worsened bool
	Installed         []netsim.NodeID
	Unreachable       []netsim.NodeID
}

// NewTable creates a table with the given unreachable metric.
func newRefTable(infinity uint32) *refTable {
	return &refTable{
		routes:   make(map[netsim.NodeID]*refRoute),
		infinity: infinity,
		holdTill: make(map[netsim.NodeID]float64),
	}
}

// SetHoldDown enables IGRP-style hold-down: after a destination becomes
// unreachable, better news from a different next hop is rejected for d
// seconds. Zero disables.
func (t *refTable) SetHoldDown(d float64) {
	if d < 0 {
		panic("routing: negative hold-down")
	}
	t.holdDown = d
}

// HeldDown reports whether dest is inside its hold-down window at time
// now.
func (t *refTable) HeldDown(dest netsim.NodeID, now float64) bool {
	return now < t.holdTill[dest]
}

func (t *refTable) startHold(dest netsim.NodeID, now float64) {
	if t.holdDown > 0 {
		t.holdTill[dest] = now + t.holdDown
	}
}

// Len returns the number of entries, including unreachable ones awaiting
// garbage collection.
func (t *refTable) Len() int { return len(t.routes) }

// Get returns the route for dest, or nil.
func (t *refTable) Get(dest netsim.NodeID) *refRoute { return t.routes[dest] }

// SetLocal installs the router's own address with metric 0.
func (t *refTable) SetLocal(self netsim.NodeID, now float64) {
	if r, ok := t.routes[self]; ok {
		*r = refRoute{Dest: self, NextHop: self, Updated: now, Local: true}
		return
	}
	t.routes[self] = t.newRoute(refRoute{Dest: self, NextHop: self, Updated: now, Local: true})
	t.sortedOK = false
}

// newRoute returns a recycled (or fresh) refRoute holding r.
func (t *refTable) newRoute(r refRoute) *refRoute {
	if k := len(t.free); k > 0 {
		p := t.free[k-1]
		t.free = t.free[:k-1]
		*p = r
		return p
	}
	p := new(refRoute)
	*p = r
	return p
}

func cmpRefRouteDest(a, b *refRoute) int { return cmp.Compare(a.Dest, b.Dest) }

// sortedRoutes returns the destination-ordered route list, rebuilding
// the cached view only after an insert or delete. Destinations are
// unique map keys, so the order is total and deterministic.
func (t *refTable) sortedRoutes() []*refRoute {
	if !t.sortedOK {
		t.sorted = t.sorted[:0]
		for _, r := range t.routes {
			t.sorted = append(t.sorted, r)
		}
		slices.SortFunc(t.sorted, cmpRefRouteDest)
		t.sortedOK = true
	}
	return t.sorted
}

// Reset clears the table in place for a cold restart (router crash):
// all routes are recycled onto the free list and the hold-down windows
// cleared, while the map buckets, sorted view and scratch buffers keep
// their capacity for the next life. The configured infinity and
// hold-down are retained.
func (t *refTable) Reset() {
	for dest, r := range t.routes {
		t.free = append(t.free, r)
		delete(t.routes, dest)
	}
	for dest := range t.holdTill {
		delete(t.holdTill, dest)
	}
	t.sorted = t.sorted[:0]
	t.sortedOK = false
}

// ApplyCost folds one neighbor's update into the table (Bellman–Ford with
// the "believe your next hop" rule): the advertised metric plus the
// ingress link cost — the metric charged for the hop to the advertising
// neighbor — capped at infinity. via is the medium the update arrived
// on, now the current time. Hop-count protocols (RIP) use cost 1; delay-
// or bandwidth-weighted protocols (Hello, IGRP's composite metric in
// spirit) supply larger costs for slower media. Cost must be at least 1
// (a zero-cost hop would allow counting loops that never age).
func (t *refTable) ApplyCost(m Message, via netsim.Medium, now float64, cost uint32) refApplyResult {
	if cost < 1 {
		panic("routing: link cost must be at least 1")
	}
	var res refApplyResult
	res.Installed = t.inst[:0]
	res.Unreachable = t.unre[:0]
	from := m.Router

	// The neighbor itself is reachable at one hop — distance-vector
	// protocols learn adjacency from the updates themselves.
	t.applyOne(Entry{Dest: from, Metric: 0}, from, via, now, cost, &res)

	for _, e := range m.Entries {
		if e.Dest == from {
			continue // the neighbor's self-route was handled above
		}
		t.applyOne(e, from, via, now, cost, &res)
	}
	// Keep the (possibly grown) backing arrays for the next call.
	t.inst = res.Installed
	t.unre = res.Unreachable
	return res
}

func (t *refTable) applyOne(e Entry, from netsim.NodeID, via netsim.Medium, now float64, cost uint32, res *refApplyResult) {
	cand := e.Metric + cost
	if cand > t.infinity || cand < e.Metric { // cap, guard overflow
		cand = t.infinity
	}
	cur, ok := t.routes[e.Dest]
	switch {
	case ok && cur.Local:
		// never replace our own address
		return
	case !ok:
		if cand >= t.infinity {
			return // don't learn unreachable routes
		}
		if t.HeldDown(e.Dest, now) {
			return // hold-down: distrust resurrection rumors
		}
		t.routes[e.Dest] = t.newRoute(refRoute{Dest: e.Dest, Metric: cand, NextHop: from, Via: via, Updated: now})
		t.sortedOK = false
		res.Changed = true
		res.Installed = append(res.Installed, e.Dest)
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
				res.Installed = append(res.Installed, e.Dest)
			}
		}
	case cand < cur.Metric:
		if t.HeldDown(e.Dest, now) && cur.Metric >= t.infinity {
			// hold-down: an unreachable destination stays down until
			// the hold expires, whatever other neighbors claim
			return
		}
		cur.Metric = cand
		cur.NextHop = from
		cur.Via = via
		cur.Updated = now
		res.Changed = true
		res.Installed = append(res.Installed, e.Dest)
	}
}

// Expire ages routes: entries unrefreshed for longer than timeout are
// marked unreachable; unreachable entries older than gcAfter are deleted.
// It returns the destinations that just became unreachable (for triggered
// updates) and those deleted. Like ApplyResult's slices, both returned
// lists are scratch-backed and valid until the next Expire call.
func (t *refTable) Expire(now, timeout, gcAfter float64) (newlyUnreachable, deleted []netsim.NodeID) {
	newlyUnreachable = t.expU[:0]
	deleted = t.expD[:0]
	for dest, r := range t.routes {
		if r.Local {
			continue
		}
		age := now - r.Updated
		if r.Metric >= t.infinity {
			if age > gcAfter {
				delete(t.routes, dest)
				t.free = append(t.free, r)
				t.sortedOK = false
				deleted = append(deleted, dest)
			}
			continue
		}
		if age > timeout {
			r.Metric = t.infinity
			t.startHold(dest, now)
			newlyUnreachable = append(newlyUnreachable, dest)
		}
	}
	slices.Sort(newlyUnreachable)
	slices.Sort(deleted)
	t.expU = newlyUnreachable
	t.expD = deleted
	return newlyUnreachable, deleted
}

// ExportInto appends the advertisement entries for an update sent on
// `on` onto dst, applying split horizon when enabled: routes learned over
// `on` are omitted, or — with poison reverse — advertised as unreachable.
// Local routes are advertised with metric 0. Agents pass a per-agent
// scratch slice so steady-state update preparation allocates nothing.
func (t *refTable) ExportInto(dst []Entry, on netsim.Medium, splitHorizon, poisonReverse bool) []Entry {
	for _, r := range t.sortedRoutes() {
		if splitHorizon && !r.Local && r.Via == on {
			if poisonReverse {
				dst = append(dst, Entry{Dest: r.Dest, Metric: t.infinity})
			}
			continue
		}
		dst = append(dst, Entry{Dest: r.Dest, Metric: r.Metric})
	}
	return dst
}

// syntheticEntries returns the extra routes an update from router
// carries after its table, as an Update writes them.
func syntheticEntries(router netsim.NodeID, extra int, infinity uint32) []Entry {
	var es []Entry
	base := netsim.NodeID(1 << 20)
	for i := 0; i < extra; i++ {
		es = append(es, Entry{Dest: base + netsim.NodeID(int(router)*MaxEntries+i), Metric: infinity - 1})
	}
	return es
}

// compareTables fails t unless tb and ref agree on Len, on every route
// for destinations below dests (Get, with Via resolved through the
// table's media), on HeldDown at now, and on the update each appends
// for each of media with split horizon off, on, and on with poison
// reverse: tb's Update messages, decoded, must carry the header asked
// for and ref's ExportInto entries followed by the synthetic routes (one
// more per medium). It also checks tb's expiry bound: at most every
// non-local route's Updated, and +Inf while the table is empty.
func compareTables(t *testing.T, tb *Table, ref *refTable, dests int, media []netsim.Medium, now float64, where string) {
	t.Helper()
	if tb.Len() != ref.Len() {
		t.Fatalf("%s: Len = %d, reference %d", where, tb.Len(), ref.Len())
	}
	for d := netsim.NodeID(0); d < netsim.NodeID(dests); d++ {
		got, want := tb.Get(d), ref.Get(d)
		if (got == nil) != (want == nil) {
			t.Fatalf("%s: Get(%d) = %+v, reference %+v", where, d, got, want)
		}
		if got != nil && (got.Dest != want.Dest || got.Metric != want.Metric || got.NextHop != want.NextHop ||
			tb.Via(got) != want.Via || got.Updated != want.Updated || got.Local != want.Local) {
			t.Fatalf("%s: Get(%d) = %+v via %v, reference %+v", where, d, *got, tb.Via(got), *want)
		}
		if tb.HeldDown(d, now) != ref.HeldDown(d, now) {
			t.Fatalf("%s: HeldDown(%d, %v) = %v, reference %v", where, d, now, tb.HeldDown(d, now), ref.HeldDown(d, now))
		}
	}
	if tb.Len() == 0 && !math.IsInf(tb.oldest, 1) {
		t.Fatalf("%s: empty table's oldest = %v, want +Inf", where, tb.oldest)
	}
	for _, r := range tb.routes {
		if !r.Local && r.Updated < tb.oldest {
			t.Fatalf("%s: oldest = %v above route %+v", where, tb.oldest, r)
		}
	}
	for i, m := range media {
		router, triggered := netsim.NodeID(7+i), i%2 == 1
		for _, mode := range [][2]bool{{false, false}, {true, false}, {true, true}} {
			got, _, err := decodeUpdate(tb, router, triggered, m, mode[0], mode[1], i)
			want := append(ref.ExportInto(nil, m, mode[0], mode[1]), syntheticEntries(router, i, ref.infinity)...)
			if err != nil || got.Router != router || got.Triggered != triggered || got.Request ||
				!slices.Equal(got.Entries, want) {
				t.Fatalf("%s: update(medium %d, split %v, poison %v, extra %d) = %+v (err %v), reference entries %v",
					where, i, mode[0], mode[1], i, got, err, want)
			}
		}
	}
}
