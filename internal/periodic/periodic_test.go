package periodic

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"routesync/internal/jitter"
	"routesync/internal/rng"
)

// Paper returns the configuration used throughout the paper's §4
// simulations: N routers, Tp = 121 s, Tc = 0.11 s, and random component tr.
func Paper(n int, tr float64, seed int64) Config {
	return Config{
		N:      n,
		Tc:     0.11,
		Jitter: jitter.Uniform{Tp: 121, Tr: tr},
		Seed:   seed,
	}
}

// Expiries returns a copy of every router's pending expiration time.
func (s *System) Expiries() []float64 {
	return append([]float64(nil), s.expiry...)
}

// SetExpiries overrides the pending expirations (len must equal N, every
// value finite) so a test can construct bespoke phases.
func (s *System) SetExpiries(e []float64) {
	if len(e) != s.cfg.N {
		panic("periodic: SetExpiries length mismatch")
	}
	for _, x := range e {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			panic("periodic: SetExpiries needs finite expiries")
		}
	}
	copy(s.expiry, e)
	s.bucketRebuild()
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero routers", Config{N: 0, Tc: 0.1, Jitter: jitter.Uniform{Tp: 121, Tr: 0.1}}},
		{"negative Tc", Config{N: 5, Tc: -1, Jitter: jitter.Uniform{Tp: 121, Tr: 0.1}}},
		{"nil jitter", Config{N: 5, Tc: 0.1}},
		{"saturating period", Config{N: 100, Tc: 2, Jitter: jitter.Uniform{Tp: 121, Tr: 0.1}}},
		{"NaN Tc", Config{N: 5, Tc: math.NaN(), Jitter: jitter.Uniform{Tp: 121, Tr: 0.1}}},
		{"+Inf Tc", Config{N: 5, Tc: math.Inf(1), Jitter: jitter.Uniform{Tp: 121, Tr: 0.1}}},
		{"NaN mean", Config{N: 5, Tc: 0.1, Jitter: jitter.Uniform{Tp: math.NaN(), Tr: 0.1}}},
		{"+Inf mean", Config{N: 5, Tc: 0.1, Jitter: jitter.Uniform{Tp: math.Inf(1), Tr: 0.1}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%s) did not panic", c.name)
				}
			}()
			New(c.cfg)
		})
	}
}

func TestPaperConfig(t *testing.T) {
	cfg := Paper(20, 0.1, 42)
	if cfg.N != 20 || cfg.Tc != 0.11 {
		t.Fatalf("Paper config = %+v", cfg)
	}
	u, ok := cfg.Jitter.(jitter.Uniform)
	if !ok || u.Tp != 121 || u.Tr != 0.1 {
		t.Fatalf("Paper jitter = %v", cfg.Jitter)
	}
}

func TestUnsynchronizedStartSpreadsPhases(t *testing.T) {
	s := New(Paper(20, 0.1, 1))
	for _, e := range s.Expiries() {
		if e < 0 || e >= 121 {
			t.Fatalf("initial expiry %v outside [0, Tp)", e)
		}
	}
}

func TestSynchronizedStartFormsFullCluster(t *testing.T) {
	cfg := Paper(20, 0.1, 1)
	cfg.Start = StartSynchronized
	s := New(cfg)
	ev := s.Step()
	if ev.Size() != 20 {
		t.Fatalf("first event size = %d, want 20", ev.Size())
	}
	if ev.Start != 0 || math.Abs(ev.End-20*0.11) > 1e-12 {
		t.Fatalf("event window = [%v, %v], want [0, 2.2]", ev.Start, ev.End)
	}
}

func TestStepAdvancesClockAndResetsMembers(t *testing.T) {
	cfg := Paper(3, 0.1, 7)
	s := New(cfg)
	s.SetExpiries([]float64{10, 50, 90})
	ev := s.Step()
	if ev.Size() != 1 || ev.Members[0] != 0 {
		t.Fatalf("event = %+v", ev)
	}
	if s.Now() != 10.11 {
		t.Fatalf("Now = %v, want 10.11", s.Now())
	}
	e := s.Expiries()
	// member 0 re-armed to End + U[120.9, 121.1]
	if e[0] < 10.11+120.9 || e[0] >= 10.11+121.1 {
		t.Fatalf("member re-arm = %v", e[0])
	}
	// non-members untouched
	if e[1] != 50 || e[2] != 90 {
		t.Fatalf("non-member expiries changed: %v", e)
	}
}

func TestClusterJoinSemantics(t *testing.T) {
	// Two routers expiring within Tc share a busy window and reset
	// together (paper Fig 5); a third far away does not.
	cfg := Paper(3, 0.1, 3)
	s := New(cfg)
	s.SetExpiries([]float64{20, 20.05, 60})
	ev := s.Step()
	if ev.Size() != 2 {
		t.Fatalf("cluster size = %d, want 2", ev.Size())
	}
	if math.Abs(ev.End-(20+2*0.11)) > 1e-12 {
		t.Fatalf("End = %v, want 20.22", ev.End)
	}
	e := s.Expiries()
	// Both members re-armed from the shared End: their next expiries
	// differ by at most 2·Tr = 0.2.
	if math.Abs(e[0]-e[1]) > 0.2 {
		t.Fatalf("cluster members diverged immediately: %v vs %v", e[0], e[1])
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []float64 {
		s := New(Paper(10, 0.1, 99))
		s.RunUntil(5000)
		return s.Expiries()
	}
	a, b := run(), b2(run)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at router %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func b2(f func() []float64) []float64 { return f() }

func TestRunUntilHorizon(t *testing.T) {
	s := New(Paper(5, 0.1, 5))
	n := s.RunUntil(1210) // ~10 rounds of 5 routers
	if n < 40 || n > 60 {
		t.Fatalf("events in 10 rounds = %d, want ~50", n)
	}
	if s.NextExpiry() <= 1210 {
		t.Fatal("RunUntil left an expiry before the horizon")
	}
}

func TestTriggerUpdateCollapsesToFullCluster(t *testing.T) {
	s := New(Paper(20, 0.1, 8))
	s.RunUntil(500)
	s.TriggerUpdate()
	ev := s.Step()
	if ev.Size() != 20 {
		t.Fatalf("triggered update produced size %d, want 20", ev.Size())
	}
}

// TestPaperSynchronizationEmerges is the headline behaviour (paper Fig 4):
// with the paper's parameters (N=20, Tp=121, Tc=0.11, Tr=0.1) an
// unsynchronized system becomes fully synchronized, typically within ~10^5
// seconds.
func TestPaperSynchronizationEmerges(t *testing.T) {
	if testing.Short() {
		t.Skip("long synchronization run")
	}
	synced := 0
	for seed := int64(1); seed <= 5; seed++ {
		s := New(Paper(20, 0.1, seed))
		res := s.RunUntilSynchronized(3e5)
		if res.Reached {
			synced++
		}
	}
	if synced < 4 {
		t.Fatalf("only %d/5 seeds synchronized within 3e5 s; paper expects near-certain synchronization", synced)
	}
}

// TestHighJitterPreventsSynchronization: with Tr = Tp/2 (the paper's §6
// recommendation) the system stays unsynchronized.
func TestHighJitterPreventsSynchronization(t *testing.T) {
	cfg := Config{N: 20, Tc: 0.11, Jitter: jitter.HalfSpread{Tp: 121}, Seed: 4}
	s := New(cfg)
	res := s.RunUntilSynchronized(3e5)
	if res.Reached {
		t.Fatalf("system synchronized at t=%v despite Tr = Tp/2", res.Time)
	}
}

// TestHighJitterBreaksSynchronization: started synchronized with a large
// random component, the system unsynchronizes (paper Fig 8, Tr = 2.8·Tc
// breaks up in ~300 rounds).
func TestHighJitterBreaksSynchronization(t *testing.T) {
	if testing.Short() {
		t.Skip("long break-up run")
	}
	cfg := Paper(20, 2.8*0.11, 11)
	cfg.Start = StartSynchronized
	s := New(cfg)
	res := s.RunUntilBroken(2, 3e6)
	if !res.Reached {
		t.Fatal("synchronization never broke with Tr = 2.8 Tc")
	}
}

// TestZeroJitterLocksSynchronization: with no random component a
// synchronized system can never break up (every timer resets identically).
func TestZeroJitterLocksSynchronization(t *testing.T) {
	cfg := Config{N: 10, Tc: 0.11, Jitter: jitter.None{Tp: 121}, Start: StartSynchronized, Seed: 1}
	s := New(cfg)
	for i := 0; i < 100; i++ {
		ev := s.Step()
		if ev.Size() != 10 {
			t.Fatalf("cluster broke without jitter at step %d: size %d", i, ev.Size())
		}
	}
}

// TestResetOnExpiryDecouples: with the RFC 1058 clock-driven timer the
// routers are uncoupled — an unsynchronized start never synchronizes, and
// with the same fixed default period a synchronized start never
// desynchronizes either (the drawback §6 points out: "there is no
// mechanism to break up synchronization if it does occur").
func TestResetOnExpiryDecouples(t *testing.T) {
	cfg := Paper(20, 0.1, 13)
	cfg.Reset = ResetOnExpiry
	s := New(cfg)
	if res := s.RunUntilSynchronized(3e5); res.Reached {
		t.Fatalf("reset-on-expiry synchronized at %v", res.Time)
	}

	cfg2 := Config{N: 20, Tc: 0.11, Jitter: jitter.None{Tp: 121}, Seed: 14}
	cfg2.Reset = ResetOnExpiry
	cfg2.Start = StartSynchronized
	s2 := New(cfg2)
	if res := s2.RunUntilBroken(19, 3e5); res.Reached {
		t.Fatalf("reset-on-expiry with fixed period desynchronized at %v", res.Time)
	}
}

// TestResetOnExpiryJitterDiffusesApart: reset-on-expiry plus a random
// component does slowly break up a synchronized start — the phases random-
// walk apart — but there is no abrupt, coupled break-up; contrast with the
// coupled model where large Tr breaks clusters within a few hundred rounds.
func TestResetOnExpiryJitterDiffusesApart(t *testing.T) {
	if testing.Short() {
		t.Skip("long diffusion run")
	}
	cfg := Paper(20, 0.3, 14)
	cfg.Reset = ResetOnExpiry
	cfg.Start = StartSynchronized
	s := New(cfg)
	res := s.RunUntilBroken(10, 5e6)
	if !res.Reached {
		t.Fatal("phases never diffused apart with jittered reset-on-expiry")
	}
}

// TestClusterDrift (paper §5.1): a cluster of size i advances its
// time-offset by about (i−1)·Tc − Tr·(i−1)/(i+1) per round relative to a
// lone router, because the cluster spends i·Tc busy but its earliest of i
// timers fires Tr·(i−1)/(i+1) early on average.
func TestClusterDrift(t *testing.T) {
	const (
		tp = 121.0
		tr = 0.05 // < Tc/2, so the cluster can never break (paper §5)
		tc = 0.11
		n  = 5 // all five in one cluster
	)
	cfg := Config{N: n, Tc: tc, Jitter: jitter.Uniform{Tp: tp, Tr: tr}, Start: StartSynchronized, Seed: 21}
	s := New(cfg)
	var firstStarts []float64
	prev := math.NaN()
	for i := 0; i < 4000; i++ {
		ev := s.Step()
		if ev.Size() != n {
			t.Fatalf("cluster broke during drift measurement at step %d (size %d); pick Tr < Tc/2", i, ev.Size())
		}
		if !math.IsNaN(prev) {
			firstStarts = append(firstStarts, ev.Start-prev)
		}
		prev = ev.Start
	}
	var sum float64
	for _, d := range firstStarts {
		sum += d
	}
	gotPeriod := sum / float64(len(firstStarts))
	wantPeriod := tp - tr*float64(n-1)/float64(n+1) + float64(n)*tc
	if math.Abs(gotPeriod-wantPeriod) > 0.01 {
		t.Fatalf("cluster period = %v, want %v (paper §5.1)", gotPeriod, wantPeriod)
	}
}

// TestLonePeriodMatchesTpPlusTc: an isolated router's average period is
// Tp + Tc (paper §4: "each router's timer expires, on the average, Tp+Tc
// seconds after that router's previous timer expiration").
func TestLonePeriodMatchesTpPlusTc(t *testing.T) {
	cfg := Config{N: 1, Tc: 0.11, Jitter: jitter.Uniform{Tp: 121, Tr: 0.1}, Seed: 31}
	s := New(cfg)
	var prev float64
	var gaps []float64
	for i := 0; i < 2000; i++ {
		ev := s.Step()
		if i > 0 {
			gaps = append(gaps, ev.Start-prev)
		}
		prev = ev.Start
	}
	var sum float64
	for _, g := range gaps {
		sum += g
	}
	mean := sum / float64(len(gaps))
	if math.Abs(mean-121.11) > 0.02 {
		t.Fatalf("lone period = %v, want ~121.11", mean)
	}
}

// TestInvariantExpiryAfterNow: after every step each pending expiry is
// >= the clock (no timer in the past).
func TestInvariantExpiryAfterNow(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(15)
		tr := r.Uniform(0.01, 5)
		cfg := Config{N: n, Tc: 0.11, Jitter: jitter.Uniform{Tp: 121, Tr: tr}, Seed: seed}
		if r.Bernoulli(0.5) {
			cfg.Start = StartSynchronized
		}
		if r.Bernoulli(0.5) {
			cfg.Reset = ResetOnExpiry
		}
		s := New(cfg)
		for i := 0; i < 500; i++ {
			s.Step()
			for _, e := range s.Expiries() {
				if e < s.Now() {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestInvariantEventWindow: each event's expiries lie inside
// [Start, Start+Size·Tc) and End is exactly Start+Size·Tc.
func TestInvariantEventWindow(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		s := New(Paper(10, 1.0, seed))
		for i := 0; i < 300; i++ {
			ev := s.Step()
			if math.Abs(ev.End-(ev.Start+float64(ev.Size())*0.11)) > 1e-9 {
				return false
			}
			for _, e := range ev.Expiries {
				if e < ev.Start || e >= ev.End {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestInvariantMonotoneEventStarts: successive event windows never
// overlap: the next Start is >= the previous End only when the next timer
// is outside the old busy window... but at minimum starts are nondecreasing.
func TestInvariantMonotoneEventStarts(t *testing.T) {
	s := New(Paper(20, 0.1, 77))
	prevStart := math.Inf(-1)
	for i := 0; i < 2000; i++ {
		ev := s.Step()
		if ev.Start < prevStart {
			t.Fatalf("event start went backwards: %v after %v", ev.Start, prevStart)
		}
		prevStart = ev.Start
	}
}

func TestSetExpiriesLengthMismatchPanics(t *testing.T) {
	s := New(Paper(3, 0.1, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("SetExpiries with wrong length did not panic")
		}
	}()
	s.SetExpiries([]float64{1, 2})
}

func TestStringers(t *testing.T) {
	if ResetAfterProcessing.String() != "reset-after-processing" ||
		ResetOnExpiry.String() != "reset-on-expiry" ||
		TimerReset(9).String() != "TimerReset(9)" {
		t.Fatal("TimerReset.String mismatch")
	}
	if StartUnsynchronized.String() != "unsynchronized" ||
		StartSynchronized.String() != "synchronized" ||
		StartState(9).String() != "StartState(9)" {
		t.Fatal("StartState.String mismatch")
	}
}

// TestSetExpiriesNonFinitePanics: a NaN has no place in the firing order
// and an infinite expiry never fires, so SetExpiries rejects both.
func TestSetExpiriesNonFinitePanics(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		t.Run(fmt.Sprint(bad), func(t *testing.T) {
			s := New(Paper(3, 0.1, 1))
			defer func() {
				if recover() == nil {
					t.Errorf("SetExpiries with %v did not panic", bad)
				}
			}()
			s.SetExpiries([]float64{1, bad, 2})
		})
	}
}
