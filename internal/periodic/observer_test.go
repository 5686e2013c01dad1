package periodic

import (
	"testing"

	"routesync/internal/jitter"
)

type roundCounter struct {
	rounds  int
	lastNow float64
	maxSize int
}

func (c *roundCounter) RoundCompleted(now float64, size int) {
	c.rounds++
	c.lastNow = now
	if size > c.maxSize {
		c.maxSize = size
	}
}

func observedConfig(n int) Config {
	tp := 6.05 * float64(n)
	return Config{
		N:      n,
		Tc:     0.11,
		Jitter: jitter.Uniform{Tp: tp, Tr: tp / 20},
		Seed:   1,
	}
}

func TestObserverRoundsMatchSteps(t *testing.T) {
	cfg := observedConfig(20)
	obs := &roundCounter{}
	cfg.Observer = obs
	sys := New(cfg)
	const steps = 500
	for i := 0; i < steps; i++ {
		sys.Step()
	}
	if obs.rounds != steps {
		t.Fatalf("observer saw %d rounds over %d steps", obs.rounds, steps)
	}
	if obs.lastNow != sys.Now() {
		t.Fatalf("observer lastNow = %v, system now = %v", obs.lastNow, sys.Now())
	}
	if obs.maxSize < 1 || obs.maxSize > 20 {
		t.Fatalf("cluster size out of range: %d", obs.maxSize)
	}
}

func TestSetObserverEquivalentToConfig(t *testing.T) {
	obs := &roundCounter{}
	sys := New(observedConfig(20))
	sys.cfg.Observer = obs
	sys.Step()
	if obs.rounds != 1 {
		t.Fatalf("SetObserver-installed observer saw %d rounds, want 1", obs.rounds)
	}
	sys.cfg.Observer = nil
	sys.Step()
	if obs.rounds != 1 {
		t.Fatal("removed observer still notified")
	}
}

// TestObserverDoesNotPerturbTrajectory: observation must be pure — the
// observed and unobserved systems replay identical trajectories.
func TestObserverDoesNotPerturbTrajectory(t *testing.T) {
	plain := New(observedConfig(20))
	watched := New(observedConfig(20))
	watched.cfg.Observer = &roundCounter{}
	for i := 0; i < 1000; i++ {
		plain.Step()
		watched.Step()
		if plain.Now() != watched.Now() {
			t.Fatalf("trajectories diverged at step %d: %v vs %v", i, plain.Now(), watched.Now())
		}
	}
}

// TestStepObserverAllocParity is the alloc guard for the observer hook:
// a scalar-counting observer must add zero allocations on top of the
// engine's own steady-state cost, and the nil-observer path must match
// the pre-hook baseline exactly.
func TestStepObserverAllocParity(t *testing.T) {
	plain := New(observedConfig(100))
	for i := 0; i < 200; i++ { // settle into steady state
		plain.Step()
	}
	base := testing.AllocsPerRun(2000, func() { plain.Step() })

	watched := New(observedConfig(100))
	watched.cfg.Observer = &roundCounter{}
	for i := 0; i < 200; i++ {
		watched.Step()
	}
	observed := testing.AllocsPerRun(2000, func() { watched.Step() })

	if observed != base {
		t.Fatalf("observer changed Step allocs: %v → %v allocs/op", base, observed)
	}
}
