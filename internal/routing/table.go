package routing

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"routesync/internal/netsim"
)

// Route is one routing-table entry.
type Route struct {
	Dest    netsim.NodeID
	Metric  uint32
	NextHop netsim.NodeID
	Via     netsim.Medium
	// Updated is the last time this route was installed or refreshed.
	Updated float64
	// Local marks the router's own address (metric 0, never expires).
	Local bool
}

// Table is a distance-vector routing table. All per-call state (the
// sorted view, apply/expire result lists, recycled Route structs) is
// retained scratch, so the steady-state update cycle — export, apply,
// expire — allocates nothing once the table has reached its high-water
// size.
type Table struct {
	routes   map[netsim.NodeID]*Route
	infinity uint32
	holdDown float64
	holdTill map[netsim.NodeID]float64

	// sorted caches the destination-ordered route list; inserts and
	// deletes invalidate it (metric/refresh changes keep the order).
	sorted   []*Route
	sortedOK bool
	// free recycles Route structs deleted by Expire or Reset.
	free []*Route
	// inst/unre back ApplyResult's slices; expU/expD back Expire's.
	inst, unre []netsim.NodeID
	expU, expD []netsim.NodeID
}

// NewTable creates a table with the given unreachable metric.
func NewTable(infinity uint32) *Table {
	return &Table{
		routes:   make(map[netsim.NodeID]*Route),
		infinity: infinity,
		holdTill: make(map[netsim.NodeID]float64),
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

// Get returns the route for dest, or nil.
func (t *Table) Get(dest netsim.NodeID) *Route { return t.routes[dest] }

// SetLocal installs the router's own address with metric 0.
func (t *Table) SetLocal(self netsim.NodeID, now float64) {
	if r, ok := t.routes[self]; ok {
		*r = Route{Dest: self, NextHop: self, Updated: now, Local: true}
		return
	}
	t.routes[self] = t.newRoute(Route{Dest: self, NextHop: self, Updated: now, Local: true})
	t.sortedOK = false
}

// newRoute returns a recycled (or fresh) Route holding r.
func (t *Table) newRoute(r Route) *Route {
	if k := len(t.free); k > 0 {
		p := t.free[k-1]
		t.free = t.free[:k-1]
		*p = r
		return p
	}
	p := new(Route)
	*p = r
	return p
}

func cmpRouteDest(a, b *Route) int { return cmp.Compare(a.Dest, b.Dest) }

// sortedRoutes returns the destination-ordered route list, rebuilding
// the cached view only after an insert or delete. Destinations are
// unique map keys, so the order is total and deterministic.
func (t *Table) sortedRoutes() []*Route {
	if !t.sortedOK {
		t.sorted = t.sorted[:0]
		for _, r := range t.routes {
			t.sorted = append(t.sorted, r)
		}
		slices.SortFunc(t.sorted, cmpRouteDest)
		t.sortedOK = true
	}
	return t.sorted
}

// Routes returns a copy of the entries sorted by destination for
// deterministic iteration (dumps, tests). Hot paths use ExportInto,
// which reads the cached sorted view without copying.
func (t *Table) Routes() []*Route {
	return append([]*Route(nil), t.sortedRoutes()...)
}

// Reset clears the table in place for a cold restart (router crash):
// all routes are recycled onto the free list and the hold-down windows
// cleared, while the map buckets, sorted view and scratch buffers keep
// their capacity for the next life. The configured infinity and
// hold-down are retained.
func (t *Table) Reset() {
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

// ApplyResult reports what an incoming update changed.
//
// Installed and Unreachable are backed by scratch the table reuses: they
// are valid until the next Apply/ApplyCost call on the same table, which
// is the lifetime every caller needs (agents react to the result before
// processing the next update).
type ApplyResult struct {
	// Changed is true if any route was added, improved, or re-costed.
	Changed bool
	// Worsened is true if any route's metric increased (including to
	// infinity) — the trigger condition for a triggered update.
	Worsened bool
	// Installed lists destinations whose forwarding entry must be
	// (re)programmed into the node FIB.
	Installed []netsim.NodeID
	// Unreachable lists destinations that just became unreachable.
	Unreachable []netsim.NodeID
}

// ApplyCost folds one neighbor's update into the table (Bellman–Ford with
// the "believe your next hop" rule): the advertised metric plus the
// ingress link cost — the metric charged for the hop to the advertising
// neighbor — capped at infinity. via is the medium the update arrived
// on, now the current time. Hop-count protocols (RIP) use cost 1; delay-
// or bandwidth-weighted protocols (Hello, IGRP's composite metric in
// spirit) supply larger costs for slower media. Cost must be at least 1
// (a zero-cost hop would allow counting loops that never age).
func (t *Table) ApplyCost(m Message, via netsim.Medium, now float64, cost uint32) ApplyResult {
	if cost < 1 {
		panic("routing: link cost must be at least 1")
	}
	var res ApplyResult
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

func (t *Table) applyOne(e Entry, from netsim.NodeID, via netsim.Medium, now float64, cost uint32, res *ApplyResult) {
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
		t.routes[e.Dest] = t.newRoute(Route{Dest: e.Dest, Metric: cand, NextHop: from, Via: via, Updated: now})
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
func (t *Table) Expire(now, timeout, gcAfter float64) (newlyUnreachable, deleted []netsim.NodeID) {
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

// ExportInto appends the advertisement entries for an update sent on
// `on` onto dst, applying split horizon when enabled: routes learned over
// `on` are omitted, or — with poison reverse — advertised as unreachable.
// Local routes are advertised with metric 0. Agents pass a per-agent
// scratch slice so steady-state update preparation allocates nothing.
func (t *Table) ExportInto(dst []Entry, on netsim.Medium, splitHorizon, poisonReverse bool) []Entry {
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
