package routing

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"routesync/internal/netsim"
)

// fakeMedium is a stand-in Medium for table tests.
type fakeMedium struct{ name string }

func (f *fakeMedium) Transmit(*netsim.Packet, *netsim.Node, netsim.NodeID) {}

// applyMsg encodes m with EncodeInto and applies the bytes, as an agent
// applies a received update.
func applyMsg(tb *Table, m Message, via netsim.Medium, now float64, cost uint32) ApplyResult {
	buf, err := EncodeInto(nil, m)
	if err != nil {
		panic(err)
	}
	return tb.ApplyCost(buf, via, now, cost)
}

// decodeUpdate writes tb's update for medium on message by message, as
// an agent does, and decodes it: it returns the first message's header
// with the entries of every message in order, and the message count.
// Each message must be exactly the Len announced before it was written,
// and carry the same header as the first.
func decodeUpdate(tb *Table, router netsim.NodeID, triggered bool, on netsim.Medium, splitHorizon, poisonReverse bool, extra int) (Message, int, error) {
	var all Message
	msgs := 0
	for u := tb.NewUpdate(router, triggered, on, splitHorizon, poisonReverse, extra); u.More(); msgs++ {
		n := u.Len()
		buf := u.Append(nil)
		if len(buf) != n {
			return all, msgs, fmt.Errorf("message %d is %d bytes, Len announced %d", msgs, len(buf), n)
		}
		m, err := Decode(buf)
		if err != nil {
			return all, msgs, fmt.Errorf("message %d: %w", msgs, err)
		}
		if msgs > 0 && (m.Router != all.Router || m.Triggered != all.Triggered || m.Request != all.Request) {
			return all, msgs, fmt.Errorf("message %d header %+v differs from the first's %+v", msgs, m, all)
		}
		if msgs == 0 {
			all = Message{Router: m.Router, Triggered: m.Triggered, Request: m.Request}
		}
		all.Entries = append(all.Entries, m.Entries...)
	}
	return all, msgs, nil
}

// exportEntries returns the entries of the update tb writes for medium
// on, decoded.
func exportEntries(tb *Table, on netsim.Medium, splitHorizon, poisonReverse bool) []Entry {
	m, _, err := decodeUpdate(tb, 0, false, on, splitHorizon, poisonReverse, 0)
	if err != nil {
		panic(err)
	}
	return m.Entries
}

func TestTableLearnsNeighborFromUpdate(t *testing.T) {
	tb := NewTable(16)
	tb.SetLocal(0, 0)
	m := &fakeMedium{"lan"}
	res := applyMsg(tb, Message{Router: 1}, m, 10, 1)
	if !res.Changed {
		t.Fatal("learning the neighbor should change the table")
	}
	r := tb.Get(1)
	if r == nil || r.Metric != 1 || r.NextHop != 1 {
		t.Fatalf("neighbor route = %+v", r)
	}
}

func TestTableBellmanFord(t *testing.T) {
	tb := NewTable(16)
	tb.SetLocal(0, 0)
	m := &fakeMedium{"lan"}
	// Neighbor 1 advertises dest 5 at metric 2 → we reach it at 3.
	res := applyMsg(tb, Message{Router: 1, Entries: []Entry{{Dest: 5, Metric: 2}}}, m, 1, 1)
	if r := tb.Get(5); r == nil || r.Metric != 3 || r.NextHop != 1 {
		t.Fatalf("route to 5 = %+v (res %+v)", tb.Get(5), res)
	}
	// Neighbor 2 advertises dest 5 at metric 1 → better path at 2.
	applyMsg(tb, Message{Router: 2, Entries: []Entry{{Dest: 5, Metric: 1}}}, m, 2, 1)
	if r := tb.Get(5); r.Metric != 2 || r.NextHop != 2 {
		t.Fatalf("route to 5 after better offer = %+v", r)
	}
	// Neighbor 1 advertises metric 9: worse, from a non-next-hop → ignored.
	applyMsg(tb, Message{Router: 1, Entries: []Entry{{Dest: 5, Metric: 9}}}, m, 3, 1)
	if r := tb.Get(5); r.Metric != 2 || r.NextHop != 2 {
		t.Fatalf("worse offer from non-next-hop adopted: %+v", r)
	}
}

func TestTableBelievesNextHopBadNews(t *testing.T) {
	tb := NewTable(16)
	tb.SetLocal(0, 0)
	m := &fakeMedium{"lan"}
	applyMsg(tb, Message{Router: 1, Entries: []Entry{{Dest: 5, Metric: 1}}}, m, 1, 1)
	// Current next hop raises the metric: must be believed.
	res := applyMsg(tb, Message{Router: 1, Entries: []Entry{{Dest: 5, Metric: 7}}}, m, 2, 1)
	if !res.Worsened {
		t.Fatal("metric increase from next hop not reported as worsened")
	}
	if r := tb.Get(5); r.Metric != 8 {
		t.Fatalf("route metric = %d, want 8", r.Metric)
	}
	// Next hop declares it unreachable.
	res = applyMsg(tb, Message{Router: 1, Entries: []Entry{{Dest: 5, Metric: 16}}}, m, 3, 1)
	if len(res.Unreachable) != 1 || res.Unreachable[0] != 5 {
		t.Fatalf("unreachable = %v", res.Unreachable)
	}
	if r := tb.Get(5); r.Metric != 16 {
		t.Fatalf("metric = %d, want infinity", r.Metric)
	}
}

func TestTableMetricCapsAtInfinity(t *testing.T) {
	tb := NewTable(16)
	m := &fakeMedium{"lan"}
	applyMsg(tb, Message{Router: 1, Entries: []Entry{{Dest: 5, Metric: 1}}}, m, 1, 1)
	applyMsg(tb, Message{Router: 1, Entries: []Entry{{Dest: 5, Metric: 40}}}, m, 2, 1)
	if r := tb.Get(5); r.Metric != 16 {
		t.Fatalf("metric = %d, want capped at 16", r.Metric)
	}
}

func TestTableIgnoresUnreachableNews(t *testing.T) {
	tb := NewTable(16)
	m := &fakeMedium{"lan"}
	res := applyMsg(tb, Message{Router: 1, Entries: []Entry{{Dest: 5, Metric: 16}}}, m, 1, 1)
	if tb.Get(5) != nil {
		t.Fatal("learned an unreachable route")
	}
	if len(res.Installed) != 1 || tb.At(res.Installed[0]).Dest != 1 {
		t.Fatalf("installed = %v, want just the neighbor", res.Installed)
	}
}

func TestTableNeverReplacesLocal(t *testing.T) {
	tb := NewTable(16)
	tb.SetLocal(0, 0)
	m := &fakeMedium{"lan"}
	applyMsg(tb, Message{Router: 1, Entries: []Entry{{Dest: 0, Metric: 0}}}, m, 1, 1)
	r := tb.Get(0)
	if !r.Local || r.Metric != 0 {
		t.Fatalf("local route overwritten: %+v", r)
	}
}

func TestTableExpireLifecycle(t *testing.T) {
	tb := NewTable(16)
	tb.SetLocal(0, 0)
	m := &fakeMedium{"lan"}
	applyMsg(tb, Message{Router: 1, Entries: []Entry{{Dest: 5, Metric: 1}}}, m, 0, 1)

	// Within timeout: nothing happens.
	un, del := tb.Expire(100, 180, 300)
	if len(un) != 0 || len(del) != 0 {
		t.Fatalf("premature expiry: %v %v", un, del)
	}
	// Past timeout: routes 1 and 5 become unreachable.
	un, del = tb.Expire(200, 180, 300)
	if len(un) != 2 || len(del) != 0 {
		t.Fatalf("timeout: un=%v del=%v", un, del)
	}
	if r := tb.Get(5); r.Metric != 16 {
		t.Fatalf("metric after timeout = %d", r.Metric)
	}
	// Local route unaffected.
	if r := tb.Get(0); r.Metric != 0 {
		t.Fatal("local route expired")
	}
	// Past GC: deleted.
	un, del = tb.Expire(600, 180, 300)
	if len(un) != 0 || len(del) != 2 {
		t.Fatalf("gc: un=%v del=%v", un, del)
	}
	if tb.Get(5) != nil {
		t.Fatal("route not garbage collected")
	}
	if tb.Len() != 1 {
		t.Fatalf("table len = %d, want 1 (local only)", tb.Len())
	}
}

func TestTableRefreshPreventsExpiry(t *testing.T) {
	tb := NewTable(16)
	m := &fakeMedium{"lan"}
	applyMsg(tb, Message{Router: 1, Entries: []Entry{{Dest: 5, Metric: 1}}}, m, 0, 1)
	applyMsg(tb, Message{Router: 1, Entries: []Entry{{Dest: 5, Metric: 1}}}, m, 150, 1)
	un, _ := tb.Expire(200, 180, 300)
	if len(un) != 0 {
		t.Fatalf("refreshed route expired: %v", un)
	}
}

func TestExportSplitHorizon(t *testing.T) {
	tb := NewTable(16)
	tb.SetLocal(0, 0)
	lan := &fakeMedium{"lan"}
	other := &fakeMedium{"other"}
	applyMsg(tb, Message{Router: 1, Entries: []Entry{{Dest: 5, Metric: 1}}}, lan, 1, 1)
	applyMsg(tb, Message{Router: 2, Entries: []Entry{{Dest: 9, Metric: 1}}}, other, 1, 1)

	// With split horizon on the LAN: routes learned over the LAN (1, 5)
	// are suppressed; local and other-medium routes remain.
	got := exportEntries(tb, lan, true, false)
	dests := map[netsim.NodeID]bool{}
	for _, e := range got {
		dests[e.Dest] = true
	}
	if dests[1] || dests[5] {
		t.Fatalf("split horizon leaked LAN routes: %v", got)
	}
	if !dests[0] || !dests[2] || !dests[9] {
		t.Fatalf("missing expected routes: %v", got)
	}

	// Without split horizon everything is advertised.
	if got := exportEntries(tb, lan, false, false); len(got) != 5 {
		t.Fatalf("full export = %v", got)
	}
}

func TestRoutesSortedDeterministic(t *testing.T) {
	tb := NewTable(16)
	m := &fakeMedium{"lan"}
	applyMsg(tb, Message{Router: 9, Entries: []Entry{{Dest: 3, Metric: 1}, {Dest: 1, Metric: 1}}}, m, 0, 1)
	rs := tb.Routes()
	for i := 1; i < len(rs); i++ {
		if rs[i-1].Dest >= rs[i].Dest {
			t.Fatalf("routes not sorted: %v then %v", rs[i-1].Dest, rs[i].Dest)
		}
	}
}

func TestTableString(t *testing.T) {
	tb := NewTable(16)
	tb.SetLocal(0, 0)
	m := &fakeMedium{"lan"}
	applyMsg(tb, Message{Router: 1, Entries: []Entry{{Dest: 5, Metric: 1}, {Dest: 7, Metric: 16}}}, m, 3, 1)
	out := tb.String()
	for _, want := range []string{"3 routes", "local", "dest 5", "metric 2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table dump missing %q:\n%s", want, out)
		}
	}
	// Unreachable entries render as words, not sentinel numbers... dest 7
	// was advertised at infinity and never learned, so only 3 routes.
	if strings.Contains(out, "dest 7") {
		t.Fatalf("unreachable advertisement learned:\n%s", out)
	}
}

// TestTableSteadyStateAllocs pins the flat table's claim: once a table
// of about 200 routes has converged, the update cycle an agent runs —
// apply each neighbor's update from its wire bytes, append an update on
// each medium with split horizon and poison reverse, age the routes —
// allocates nothing.
func TestTableSteadyStateAllocs(t *testing.T) {
	const dests = 200
	tb := NewTable(16)
	tb.SetLocal(0, 0)
	media := []netsim.Medium{&fakeMedium{"a"}, &fakeMedium{"b"}}
	msgs := make([][]byte, 4)
	for i := range msgs {
		m := Message{Router: netsim.NodeID(1 + i)}
		for d := 1; d <= dests; d++ {
			m.Entries = append(m.Entries, Entry{Dest: netsim.NodeID(d), Metric: uint32(1 + (d+i)%5)})
		}
		msgs[i], _ = EncodeInto(nil, m)
	}
	var enc []byte
	now := 0.0
	cycle := func() {
		now++
		for i, m := range msgs {
			tb.ApplyCost(m, media[i%len(media)], now, 1)
		}
		for _, m := range media {
			for u := tb.NewUpdate(0, false, m, true, true, 0); u.More(); {
				enc = u.Append(enc[:0])
			}
		}
		tb.Expire(now, 180, 120)
	}
	cycle()
	if tb.Len() != dests+1 {
		t.Fatalf("converged table holds %d routes, want %d", tb.Len(), dests+1)
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state cycle: %v allocs/op, want 0", allocs)
	}
}

// TestAppendUpdateTooManyPanics pins how an update past MaxEntries is
// cut: instead of panicking (or writing a wrapped uint16 count), a table
// of n routes plus synthetic ones goes out as ⌈n/MaxEntries⌉ messages,
// every one full but the last, carrying every entry once in table
// order, while exactly MaxEntries fits one message.
func TestAppendUpdateTooManyPanics(t *testing.T) {
	m := &fakeMedium{"lan"}
	for _, tc := range []struct {
		name          string
		routes, extra int
		msgs          int
	}{
		{"MaxEntries routes", MaxEntries, 0, 1},
		{"MaxEntries-1 routes plus one extra", MaxEntries - 1, 1, 1},
		{"MaxEntries+1 routes", MaxEntries + 1, 0, 2},
		{"MaxEntries routes plus one extra", MaxEntries, 1, 2},
		{"extra routes alone", 0, MaxEntries + 1, 2},
		{"three messages", 2*MaxEntries + 5, 7, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A sender learned at one hop and the routes it advertised,
			// applied in messages EncodeInto accepts.
			tb := NewTable(16)
			for lo := 2; lo <= tc.routes; lo += MaxEntries {
				msg := Message{Router: 1}
				for d := lo; d <= min(tc.routes, lo+MaxEntries-1); d++ {
					msg.Entries = append(msg.Entries, Entry{Dest: netsim.NodeID(d), Metric: 1})
				}
				applyMsg(tb, msg, m, 0, 1)
			}
			if tc.routes > 0 && tb.Len() != tc.routes {
				t.Fatalf("table holds %d routes, want %d", tb.Len(), tc.routes)
			}
			got, msgs, err := decodeUpdate(tb, 0, false, m, false, false, tc.extra)
			if err != nil {
				t.Fatal(err)
			}
			var want []Entry
			for _, r := range tb.Routes() {
				want = append(want, Entry{Dest: r.Dest, Metric: r.Metric})
			}
			want = append(want, syntheticEntries(0, tc.extra, 16)...)
			if msgs != tc.msgs || !slices.Equal(got.Entries, want) {
				t.Fatalf("%d routes + %d extra: %d messages carrying %d entries, want %d carrying %d",
					tb.Len(), tc.extra, msgs, len(got.Entries), tc.msgs, len(want))
			}
		})
	}
}
