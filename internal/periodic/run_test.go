package periodic

import (
	"math"
	"testing"

	"routesync/internal/jitter"
)

func TestRunUntilSynchronizedImmediate(t *testing.T) {
	cfg := Paper(10, 0.1, 2)
	cfg.Start = StartSynchronized
	s := New(cfg)
	res := s.RunUntilSynchronized(1e6)
	if !res.Reached || res.Time != 0 || res.Events != 1 {
		t.Fatalf("res = %+v, want immediate sync at t=0", res)
	}
}

func TestRunUntilSynchronizedHorizonMiss(t *testing.T) {
	cfg := Config{N: 20, Tc: 0.11, Jitter: jitter.HalfSpread{Tp: 121}, Seed: 6}
	s := New(cfg)
	res := s.RunUntilSynchronized(10000)
	if res.Reached {
		t.Fatal("high-jitter system should not synchronize in 10^4 s")
	}
	if res.Time > 10000+122 {
		t.Fatalf("reported time %v far past horizon", res.Time)
	}
	if res.Rounds <= 0 {
		t.Fatalf("rounds = %v", res.Rounds)
	}
}

func TestRunUntilBrokenImmediate(t *testing.T) {
	// An unsynchronized high-jitter start breaks (round of lone firings)
	// almost immediately.
	cfg := Config{N: 10, Tc: 0.11, Jitter: jitter.HalfSpread{Tp: 121}, Seed: 9}
	s := New(cfg)
	res := s.RunUntilBroken(1, 1e5)
	if !res.Reached {
		t.Fatal("unsynchronized system not detected as broken")
	}
	if res.Time > 2000 {
		t.Fatalf("took %v s to observe an unsynchronized round", res.Time)
	}
}

func TestRunUntilBrokenThresholdClamp(t *testing.T) {
	cfg := Config{N: 10, Tc: 0.11, Jitter: jitter.HalfSpread{Tp: 121}, Seed: 9}
	s := New(cfg)
	res := s.RunUntilBroken(0, 1e5) // clamped to 1
	if !res.Reached {
		t.Fatal("threshold 0 (clamped to 1) never reached")
	}
}

func TestFirstPassageUpMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("long run")
	}
	s := New(Paper(20, 0.1, 3))
	times := s.FirstPassageUp(5e5)
	if len(times) != 21 {
		t.Fatalf("len = %d", len(times))
	}
	if times[1] == math.Inf(1) {
		t.Fatal("size 1 never reached")
	}
	prev := 0.0
	for i := 1; i <= 20; i++ {
		if times[i] < prev {
			t.Fatalf("first-passage times not monotone at %d: %v < %v", i, times[i], prev)
		}
		if !math.IsInf(times[i], 1) {
			prev = times[i]
		}
	}
	if math.IsInf(times[20], 1) {
		t.Fatal("never fully synchronized within 5e5 s (seed 3)")
	}
}

func TestFirstPassageDownMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("long run")
	}
	cfg := Paper(20, 0.3, 5)
	cfg.Start = StartSynchronized
	s := New(cfg)
	times := s.FirstPassageDown(5e6)
	if times[20] != 0 {
		t.Fatalf("times[N] = %v, want 0", times[20])
	}
	prev := math.Inf(1)
	for i := 19; i >= 1; i-- {
		if !math.IsInf(times[i], 1) && times[i] > prev && prev != math.Inf(1) {
			// going down, smaller sizes are reached later (larger times)
		}
		_ = prev
		prev = times[i]
	}
	// smaller target sizes take longer to reach
	last := 0.0
	for i := 19; i >= 1; i-- {
		if math.IsInf(times[i], 1) {
			continue
		}
		if times[i] < last {
			t.Fatalf("down passage times not nondecreasing toward small sizes: t[%d]=%v < %v", i, times[i], last)
		}
		last = times[i]
	}
	if math.IsInf(times[1], 1) {
		t.Fatal("never fully broke up within 5e6 s with Tr=0.3 (2.7 Tc)")
	}
}

func TestLargestPerRoundSeries(t *testing.T) {
	s := New(Paper(20, 0.1, 12))
	times, sizes := s.LargestPerRound(50000)
	if len(times) != len(sizes) || len(times) == 0 {
		t.Fatalf("series lengths %d/%d", len(times), len(sizes))
	}
	for i, sz := range sizes {
		if sz < 1 || sz > 20 {
			t.Fatalf("size out of range at %d: %d", i, sz)
		}
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			t.Fatalf("round times not increasing at %d", i)
		}
	}
}

func TestOffsetTrace(t *testing.T) {
	s := New(Paper(10, 0.1, 15))
	pts := s.OffsetTrace(12111) // ~100 rounds
	if len(pts) < 900 || len(pts) > 1100 {
		t.Fatalf("points = %d, want ~1000 (10 routers x ~100 rounds)", len(pts))
	}
	window := s.RoundWindow()
	for _, p := range pts {
		if p.Offset < 0 || p.Offset >= window {
			t.Fatalf("offset %v outside [0, %v)", p.Offset, window)
		}
		if p.Offset != math.Mod(p.Time, window) {
			t.Fatalf("offset %v is not time %v mod %v", p.Offset, p.Time, window)
		}
	}
}

func TestEventMarksWindow(t *testing.T) {
	s := New(Paper(5, 0.1, 18))
	marks := s.EventMarks(1000, 3000)
	if len(marks) == 0 {
		t.Fatal("no marks in window")
	}
	expiries, resets := 0, 0
	for _, m := range marks {
		if m.Time > 3000+121.5 {
			t.Fatalf("mark at %v beyond horizon", m.Time)
		}
		if m.Reset {
			resets++
		} else {
			expiries++
		}
	}
	if expiries != resets {
		t.Fatalf("expiries %d != resets %d (each expiration pairs with a reset)", expiries, resets)
	}
}

// TestSyncFasterWithMoreRouters: the phase-transition intuition — with the
// same Tr, more routers synchronize faster (clusters form more easily).
func TestSyncFasterWithMoreRouters(t *testing.T) {
	if testing.Short() {
		t.Skip("long run")
	}
	avgSync := func(n int) float64 {
		var sum float64
		const seeds = 3
		for seed := int64(1); seed <= seeds; seed++ {
			s := New(Paper(n, 0.1, seed))
			res := s.RunUntilSynchronized(2e6)
			if !res.Reached {
				return math.Inf(1)
			}
			sum += res.Time
		}
		return sum / seeds
	}
	t30 := avgSync(30)
	t15 := avgSync(15)
	if !(t30 < t15) {
		t.Fatalf("30 routers took %v, 15 routers took %v; want faster sync with more routers", t30, t15)
	}
}
