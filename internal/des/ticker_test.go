package des

import (
	"math"
	"testing"

	"routesync/internal/rng"
)

// Ticker schedules fn repeatedly. The next interval is obtained from the
// period callback after each firing, which is how jittered routing timers
// are expressed (the period callback draws from the jitter policy). No
// production code runs one — the routing protocols arm their timers
// through protocol.Kernel — so the ticker lives here with its tests.
//
// The re-arm closure is allocated once at construction, so a running
// ticker adds no per-firing garbage beyond the kernel's pooled event.
type Ticker struct {
	sim    *Simulator
	event  Event
	period func() Time
	fn     func()
	fire   func() // hoisted re-arm closure, allocated once
	label  string
	stopit bool
}

// NewTicker creates and starts a ticker whose first firing is period() from
// now and which re-arms itself with a fresh period() after each firing.
func (s *Simulator) NewTicker(label string, period func() Time, fn func()) *Ticker {
	t := &Ticker{sim: s, period: period, fn: fn, label: label}
	t.fire = func() {
		t.fn()
		if !t.stopit {
			t.arm()
		}
	}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	d := t.period()
	if d < 0 {
		panic("des: ticker period() returned negative delay")
	}
	t.event = t.sim.After(d, t.label, t.fire)
}

// Stop cancels future firings. If called from within fn it prevents the
// re-arm; otherwise it cancels the pending event.
func (t *Ticker) Stop() {
	t.stopit = true
	t.sim.Cancel(t.event)
}

// Reset cancels the pending firing and re-arms with a fresh period() from
// the current instant. This models a router resetting its routing timer.
func (t *Ticker) Reset() {
	t.sim.Cancel(t.event)
	t.stopit = false
	t.arm()
}

// NextAt returns the absolute time of the pending firing, or +Inf if the
// ticker is stopped.
func (t *Ticker) NextAt() Time {
	if ev, ok := t.event.live(); ok {
		return ev.at
	}
	return math.Inf(1)
}

func TestTickerJitteredPeriods(t *testing.T) {
	s := New()
	r := rng.New(1)
	var fires []Time
	tk := s.NewTicker("rt", func() Time { return r.Uniform(120.89, 121.11) }, func() {
		fires = append(fires, s.Now())
	})
	s.RunUntil(1000)
	tk.Stop()
	if len(fires) < 7 || len(fires) > 9 {
		t.Fatalf("got %d firings in 1000s with ~121s period, want ~8", len(fires))
	}
	for i := 1; i < len(fires); i++ {
		gap := fires[i] - fires[i-1]
		if gap < 120.89 || gap >= 121.11 {
			t.Fatalf("gap %d = %v outside jitter window", i, gap)
		}
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	s := New()
	count := 0
	var tk *Ticker
	tk = s.NewTicker("t", func() Time { return 1 }, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	s.RunUntil(100)
	if count != 3 {
		t.Fatalf("ticker fired %d times after Stop at 3", count)
	}
}

func TestTickerReset(t *testing.T) {
	s := New()
	var fires []Time
	tk := s.NewTicker("t", func() Time { return 10 }, func() {
		fires = append(fires, s.Now())
	})
	// Reset at t=5; next firing should be at 15, not 10.
	s.Schedule(5, "reset", func() { tk.Reset() })
	s.RunUntil(16)
	tk.Stop()
	if len(fires) != 1 || fires[0] != 15 {
		t.Fatalf("fires = %v, want [15]", fires)
	}
}

func TestTickerNextAt(t *testing.T) {
	s := New()
	tk := s.NewTicker("t", func() Time { return 7 }, func() {})
	if tk.NextAt() != 7 {
		t.Fatalf("NextAt = %v, want 7", tk.NextAt())
	}
	tk.Stop()
	if !math.IsInf(tk.NextAt(), 1) {
		t.Fatalf("NextAt after Stop = %v, want +Inf", tk.NextAt())
	}
}

func TestTickerNegativePeriodPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative ticker period did not panic")
		}
	}()
	s.NewTicker("bad", func() Time { return -1 }, func() {})
}
