package des

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"routesync/internal/rng"
)

func TestScheduleAndRunOrder(t *testing.T) {
	s := New()
	var got []int
	s.Schedule(3, "c", func() { got = append(got, 3) })
	s.Schedule(1, "a", func() { got = append(got, 1) })
	s.Schedule(2, "b", func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if s.Now() != 3 {
		t.Fatalf("Now() = %v, want 3", s.Now())
	}
}

func TestTieBreakFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		s.Schedule(5, "tie", func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events fired out of insertion order at %d: %v", i, got[i])
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.Schedule(10, "x", func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling into the past did not panic")
		}
	}()
	s.Schedule(5, "past", func() {})
}

// The past-time panic prints the event's key in hex, so a caller that
// packs its origin into the key (netsim: node id + 1 above bit 38) can
// read it there while event labels stay constant.
func TestSchedulePastPanicPrintsKey(t *testing.T) {
	s := New()
	s.RunUntil(10)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `Schedule("late", key 0x4000000007) at 5`) {
			t.Fatalf("panic %q does not print the key", msg)
		}
	}()
	s.ScheduleKeyed(5, 4<<36|7, "late", func() {})
}

func TestScheduleNaNPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling NaN did not panic")
		}
	}()
	s.Schedule(math.NaN(), "nan", func() {})
}

func TestScheduleNilFnPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("nil fn did not panic")
		}
	}()
	s.Schedule(1, "nil", nil)
}

func TestAfter(t *testing.T) {
	s := New()
	var at Time
	s.Schedule(10, "outer", func() {
		s.After(2.5, "inner", func() { at = s.Now() })
	})
	s.Run()
	if at != 12.5 {
		t.Fatalf("After fired at %v, want 12.5", at)
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.Schedule(1, "x", func() { fired = true })
	if !s.Cancel(e) {
		t.Fatal("Cancel returned false for pending event")
	}
	if s.Cancel(e) {
		t.Fatal("double Cancel returned true")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if s.Cancel(Event{}) {
		t.Fatal("Cancel of the zero Event returned true")
	}
}

// TestStaleHandleAfterReuse checks generation counting: a handle to a
// fired event must stay stale even after its pool slot is recycled by a
// later Schedule.
func TestStaleHandleAfterReuse(t *testing.T) {
	s := New()
	first := s.Schedule(1, "first", func() {})
	s.Run()
	if _, live := first.live(); live {
		t.Fatal("fired event still live")
	}
	// The pool has exactly one slot; this reuses it.
	secondFired := false
	second := s.Schedule(2, "second", func() { secondFired = true })
	if _, live := first.live(); live {
		t.Fatal("stale handle went live after slot reuse")
	}
	if s.Cancel(first) {
		t.Fatal("stale handle cancelled the recycled slot's event")
	}
	if ev, live := second.live(); !live || ev.at != 2 {
		t.Fatal("fresh handle not scheduled")
	}
	s.Run()
	if !secondFired {
		t.Fatal("recycled slot did not run the fresh event's callback")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	s := New()
	var got []int
	events := make([]Event, 10)
	for i := 0; i < 10; i++ {
		i := i
		events[i] = s.Schedule(Time(i), "e", func() { got = append(got, i) })
	}
	s.Cancel(events[4])
	s.Cancel(events[7])
	s.Run()
	if len(got) != 8 {
		t.Fatalf("got %d events, want 8", len(got))
	}
	for _, v := range got {
		if v == 4 || v == 7 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
	if !sort.IntsAreSorted(got) {
		t.Fatalf("events out of order after cancel: %v", got)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	s := New()
	var fired []Time
	for _, at := range []Time{1, 2, 3, 10, 20} {
		at := at
		s.Schedule(at, "e", func() { fired = append(fired, at) })
	}
	n := s.RunUntil(5)
	if n != 3 {
		t.Fatalf("RunUntil(5) processed %d, want 3", n)
	}
	if s.Now() != 5 {
		t.Fatalf("clock at %v after RunUntil(5), want 5", s.Now())
	}
	if s.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", s.Pending())
	}
	n = s.RunUntil(100)
	if n != 2 {
		t.Fatalf("second RunUntil processed %d, want 2", n)
	}
	if s.Now() != 100 {
		t.Fatalf("clock = %v, want 100", s.Now())
	}
}

func TestRunUntilEmptyAdvancesClock(t *testing.T) {
	s := New()
	s.RunUntil(42)
	if s.Now() != 42 {
		t.Fatalf("clock = %v, want 42", s.Now())
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	s := New()
	var got []Time
	s.Schedule(1, "a", func() {
		got = append(got, s.Now())
		s.After(1, "b", func() { got = append(got, s.Now()) })
		s.Schedule(1.5, "c", func() { got = append(got, s.Now()) })
	})
	s.Run()
	want := []Time{1, 1.5, 2}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestReentrantRunPanics(t *testing.T) {
	s := New()
	s.Schedule(1, "a", func() {
		defer func() {
			if recover() == nil {
				t.Error("re-entrant Run did not panic")
			}
		}()
		s.Run()
	})
	s.Run()
}

// TestHeapOrderingProperty drives the queue with random timestamps and
// checks events always pop in nondecreasing time order.
func TestHeapOrderingProperty(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		s := New()
		n := 5 + r.Intn(200)
		for i := 0; i < n; i++ {
			s.Schedule(r.Uniform(0, 1000), "e", func() {})
		}
		last := Time(-1)
		ok := true
		for s.Pending() > 0 {
			s.Step()
			if s.Now() < last {
				ok = false
			}
			last = s.Now()
		}
		return ok
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestInterleavedScheduleCancelProperty randomly schedules and cancels and
// verifies the processed+cancelled+pending accounting stays consistent.
func TestInterleavedScheduleCancelProperty(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		s := New()
		var live []Event
		scheduled, cancelled := 0, 0
		for i := 0; i < 300; i++ {
			if len(live) > 0 && r.Bernoulli(0.3) {
				idx := r.Intn(len(live))
				if s.Cancel(live[idx]) {
					cancelled++
				}
				live = append(live[:idx], live[idx+1:]...)
			} else {
				live = append(live, s.Schedule(r.Uniform(0, 100), "e", func() {}))
				scheduled++
			}
		}
		s.Run()
		return int(s.Counts().Fired) == scheduled-cancelled
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		r := rng.New(1)
		for j := 0; j < 1000; j++ {
			s.Schedule(r.Uniform(0, 1000), "e", func() {})
		}
		s.Run()
	}
}
