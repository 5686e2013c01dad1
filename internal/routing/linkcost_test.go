package routing

import "testing"

func TestApplyCostWeighted(t *testing.T) {
	tb := NewTable(1000)
	m := &fakeMedium{"slow"}
	res := applyMsg(tb, Message{Router: 1, Entries: []Entry{{Dest: 5, Metric: 10}}}, m, 0, 7)
	if !res.Changed {
		t.Fatal("no change")
	}
	if r := tb.Get(5); r.Metric != 17 {
		t.Fatalf("metric = %d, want 10+7", r.Metric)
	}
	if r := tb.Get(1); r.Metric != 7 {
		t.Fatalf("neighbor metric = %d, want 7", r.Metric)
	}
}

func TestApplyCostOverflowCapsAtInfinity(t *testing.T) {
	tb := NewTable(1 << 30)
	m := &fakeMedium{"x"}
	applyMsg(tb, Message{Router: 1, Entries: []Entry{{Dest: 5, Metric: ^uint32(0) - 2}}}, m, 0, 7)
	if r := tb.Get(5); r != nil && r.Metric < 7 {
		t.Fatalf("overflowed metric: %+v", r)
	}
}

func TestApplyCostZeroPanics(t *testing.T) {
	tb := NewTable(16)
	defer func() {
		if recover() == nil {
			t.Fatal("zero cost did not panic")
		}
	}()
	applyMsg(tb, Message{Router: 1}, &fakeMedium{"x"}, 0, 0)
}

// TestWeightedProtocolPrefersCheapDetour: a diamond where the direct link
// to dst is expensive (cost 10) and the two-hop detour via mid is cheap
// (1+1). Fed the same two updates, a table that charges link costs must
// route around, and one that counts hops (cost 1 everywhere, as the agent
// charges) straight through.
func TestWeightedProtocolPrefersCheapDetour(t *testing.T) {
	const mid, dst = 1, 2
	slow, fast := &fakeMedium{"slow"}, &fakeMedium{"fast"}
	build := func(slowCost uint32) *Route {
		tb := NewTable(1000)
		tb.SetLocal(0, 0)
		applyMsg(tb, Message{Router: dst}, slow, 0, slowCost)
		applyMsg(tb, Message{Router: mid, Entries: []Entry{{Dest: dst, Metric: 1}}}, fast, 0, 1)
		return tb.Get(dst)
	}
	if r := build(1); r == nil || r.Metric != 1 || r.NextHop != dst {
		t.Fatalf("hop-count route = %+v, want direct (metric 1)", r)
	}
	if r := build(10); r == nil || r.Metric != 2 || r.NextHop != mid {
		t.Fatalf("cost-aware route = %+v, want detour via mid (metric 2)", r)
	}
}
