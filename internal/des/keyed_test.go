package des

import (
	"math"
	"testing"

	"routesync/internal/rng"
)

// Keyed events at the same timestamp must fire in key order regardless of
// insertion order, on both backends — this is the property the partitioned
// netsim runtime depends on for K-independence.
func TestKeyedOrderAtEqualTime(t *testing.T) {
	for _, b := range []Backend{BackendHeap, BackendCalendar} {
		s := NewBackend(b)
		var got []uint64
		// Insert in a scrambled key order.
		for _, k := range []uint64{7, 2, 9, 1, 5, 3, 8, 4, 6} {
			k := k
			s.ScheduleKeyed(10, k, "keyed", func() { got = append(got, k) })
		}
		s.Run()
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Fatalf("%v: keyed events out of key order: %v", b, got)
			}
		}
	}
}

// Equal keys fall back to insertion order, and unkeyed events (key 0) sort
// before every keyed event at the same instant.
func TestKeyedTiesAndUnkeyedFirst(t *testing.T) {
	s := New()
	var got []string
	s.ScheduleKeyed(1, 4, "k4-a", func() { got = append(got, "k4-a") })
	s.ScheduleKeyed(1, 4, "k4-b", func() { got = append(got, "k4-b") })
	s.ScheduleKeyed(1, 2, "k2", func() { got = append(got, "k2") })
	s.Schedule(1, "unkeyed", func() { got = append(got, "unkeyed") })
	s.Run()
	want := []string{"unkeyed", "k2", "k4-a", "k4-b"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

// The ordering of keyed events must not depend on insertion order even
// across interleaved times and keys: two simulators fed the same events in
// different insertion orders replay identically.
func TestKeyedInsertionOrderIndependence(t *testing.T) {
	type ev struct {
		at  Time
		key uint64
	}
	r := rng.New(42)
	var evs []ev
	for i := 0; i < 400; i++ {
		evs = append(evs, ev{at: Time(r.Intn(20)), key: uint64(1 + r.Intn(50))})
	}
	run := func(order []int) []ev {
		s := New()
		var got []ev
		for _, idx := range order {
			e := evs[idx]
			s.ScheduleKeyed(e.at, e.key, "p", func() { got = append(got, e) })
		}
		s.Run()
		return got
	}
	fwd := make([]int, len(evs))
	rev := make([]int, len(evs))
	for i := range evs {
		fwd[i] = i
		rev[i] = len(evs) - 1 - i
	}
	a, b := run(fwd), run(rev)
	for i := range a {
		// Equal (at, key) pairs are insertion-ordered and may legitimately
		// swap; netsim guarantees unique keys per (node, time), so only
		// compare the (at, key) sequence.
		if a[i] != b[i] {
			t.Fatalf("event %d differs across insertion orders: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestNextAt(t *testing.T) {
	s := New()
	if !math.IsInf(s.NextAt(), 1) {
		t.Fatalf("NextAt on empty queue = %v, want +Inf", s.NextAt())
	}
	s.Schedule(7, "a", func() {})
	s.Schedule(3, "b", func() {})
	if s.NextAt() != 3 {
		t.Fatalf("NextAt = %v, want 3", s.NextAt())
	}
	if s.Processed() != 0 {
		t.Fatal("NextAt must not execute events")
	}
}

func TestRunBeforeIsStrict(t *testing.T) {
	s := New()
	var got []Time
	for _, at := range []Time{1, 2, 3, 3, 4} {
		at := at
		s.Schedule(at, "e", func() { got = append(got, at) })
	}
	n := s.RunBefore(3)
	if n != 2 {
		t.Fatalf("RunBefore(3) processed %d events, want 2 (strictly before)", n)
	}
	if s.Now() != 3 {
		t.Fatalf("clock = %v after RunBefore(3), want 3", s.Now())
	}
	// An event injected exactly at the old horizon must still be runnable
	// (this is how barrier arrivals land at a window boundary).
	s.Schedule(3, "boundary", func() { got = append(got, -3) })
	s.RunBefore(5)
	want := []Time{1, 2, 3, 3, -3, 4}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

func TestRunBeforeEmptyAdvancesClock(t *testing.T) {
	s := New()
	s.RunBefore(12)
	if s.Now() != 12 {
		t.Fatalf("clock = %v, want 12", s.Now())
	}
}

func TestRunBeforeInfinitePanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("RunBefore(+Inf) did not panic")
		}
	}()
	s.RunBefore(math.Inf(1))
}
