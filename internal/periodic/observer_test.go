package periodic

import (
	"testing"

	"routesync/internal/jitter"
)

// roundCounter is an OnEvent subscriber that keeps only scalars.
type roundCounter struct {
	rounds  uint64
	lastNow float64
	maxSize int
}

func (c *roundCounter) observe(ev Event) {
	c.rounds++
	c.lastNow = ev.End
	if ev.Size() > c.maxSize {
		c.maxSize = ev.Size()
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

// TestObserverRoundsMatchSteps: Rounds counts every Step, and equals the
// number of OnEvent callbacks.
func TestObserverRoundsMatchSteps(t *testing.T) {
	obs := &roundCounter{}
	sys := New(observedConfig(20))
	sys.OnEvent(obs.observe)
	const steps = 500
	for i := 0; i < steps; i++ {
		sys.Step()
	}
	if obs.rounds != steps || sys.Rounds() != steps {
		t.Fatalf("over %d steps: %d OnEvent callbacks, Rounds() = %d", steps, obs.rounds, sys.Rounds())
	}
	if n := sys.RunUntil(sys.Now() + 1e4); sys.Rounds() != steps+n || obs.rounds != sys.Rounds() {
		t.Fatalf("RunUntil stepped %d more: Rounds() = %d, %d callbacks", n, sys.Rounds(), obs.rounds)
	}
	if obs.lastNow != sys.Now() {
		t.Fatalf("observer lastNow = %v, system now = %v", obs.lastNow, sys.Now())
	}
	if obs.maxSize < 1 || obs.maxSize > 20 {
		t.Fatalf("cluster size out of range: %d", obs.maxSize)
	}
}

// TestObserverDoesNotPerturbTrajectory: observation must be pure — the
// observed and unobserved systems replay identical trajectories.
func TestObserverDoesNotPerturbTrajectory(t *testing.T) {
	plain := New(observedConfig(20))
	watched := New(observedConfig(20))
	watched.OnEvent((&roundCounter{}).observe)
	for i := 0; i < 1000; i++ {
		plain.Step()
		watched.Step()
		if plain.Now() != watched.Now() {
			t.Fatalf("trajectories diverged at step %d: %v vs %v", i, plain.Now(), watched.Now())
		}
	}
	if plain.Rounds() != watched.Rounds() {
		t.Fatalf("Rounds() = %d unobserved, %d observed", plain.Rounds(), watched.Rounds())
	}
}

// TestStepObserverAllocParity is the alloc guard for the OnEvent hook: a
// scalar-counting subscriber must add zero allocations on top of the
// engine's own steady-state cost.
func TestStepObserverAllocParity(t *testing.T) {
	plain := New(observedConfig(100))
	for i := 0; i < 200; i++ { // settle into steady state
		plain.Step()
	}
	base := testing.AllocsPerRun(2000, func() { plain.Step() })

	watched := New(observedConfig(100))
	watched.OnEvent((&roundCounter{}).observe)
	for i := 0; i < 200; i++ {
		watched.Step()
	}
	observed := testing.AllocsPerRun(2000, func() { watched.Step() })

	if observed != base {
		t.Fatalf("OnEvent subscriber changed Step allocs: %v → %v allocs/op", base, observed)
	}
}
