// Package bench holds the micro-benchmark bodies for the hot paths the
// figure pipeline leans on: des event scheduling, periodic cluster
// stepping, and cluster growth. Each body is an exported func(*testing.B)
// so the same code runs both under `go test -bench` (via the wrappers in
// bench_test.go) and under `figures -bench`, which feeds the bodies to
// testing.Benchmark and writes the results to out/BENCH_NNNN.json — the
// cross-PR regression trajectory.
package bench

import (
	"sort"
	"sync/atomic"
	"testing"

	"routesync/internal/cluster"
	"routesync/internal/des"
	"routesync/internal/jitter"
	"routesync/internal/periodic"
	"routesync/internal/rng"
)

// benchObserver mirrors the runner's Metrics shape — lock-free atomic
// counters — so the observed-mode benchmarks price the hook cost the
// real pipeline pays, without this package depending on the runner layer.
type benchObserver struct {
	scheduled, fired, cancelled, rounds atomic.Uint64
}

func (o *benchObserver) EventScheduled(at des.Time, depth int) { o.scheduled.Add(1) }
func (o *benchObserver) EventFired(at des.Time, depth int)     { o.fired.Add(1) }
func (o *benchObserver) EventCancelled(at des.Time, depth int) { o.cancelled.Add(1) }
func (o *benchObserver) RoundCompleted(now float64, size int)  { o.rounds.Add(1) }

// DESScheduleStep measures the des kernel's steady state: one Step plus
// one Schedule per iteration against a warm event pool. With the
// free-list pool this must run at 0 allocs/op — every fired event's slot
// is recycled by the next Schedule.
func DESScheduleStep(b *testing.B) {
	sim := des.New()
	nop := func() {}
	const depth = 64 // pending events held across iterations
	at := des.Time(0)
	for i := 0; i < depth; i++ {
		at += 1
		sim.Schedule(at, "bench", nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
		at += 1
		sim.Schedule(at, "bench", nop)
	}
}

// DESScheduleCancel measures schedule-then-cancel churn — the routing
// agents' timer re-arm pattern — which must likewise recycle slots
// without allocating.
func DESScheduleCancel(b *testing.B) {
	sim := des.New()
	nop := func() {}
	// Warm the pool: the first schedule ever allocates the slot, and at
	// b.N == 1 that cold start would read as 1 alloc/op.
	sim.Cancel(sim.Schedule(1e9, "warm", nop))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := sim.Schedule(des.Time(i)+1e9, "bench", nop)
		sim.Cancel(ev)
	}
}

// DESScheduleStepObserved is DESScheduleStep with a counting observer
// installed: the steady state must stay at 0 allocs/op, paying only the
// atomic increments per event.
func DESScheduleStepObserved(b *testing.B) {
	sim := des.New()
	sim.SetObserver(&benchObserver{})
	nop := func() {}
	const depth = 64
	at := des.Time(0)
	for i := 0; i < depth; i++ {
		at += 1
		sim.Schedule(at, "bench", nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
		at += 1
		sim.Schedule(at, "bench", nop)
	}
}

// DESScheduleFire measures the kernel's steady state — one Step plus one
// Schedule per iteration — at a configurable pending-event depth on a
// chosen queue backend. The prefill scatters expiries uniformly over a
// window of mean spacing one, and each fired event is replaced by a new
// one at a uniform offset past the horizon, so depth stays constant and
// the queue keeps its spread. This is the backend crossover benchmark:
// the heap pays O(log depth) per op while the calendar queue stays O(1)
// amortized, which is the whole case for the calendar backend at
// large-N populations.
func DESScheduleFire(b *testing.B, backend des.Backend, depth int) {
	sim := des.NewBackend(backend)
	nop := func() {}
	r := rng.New(11)
	window := float64(depth)
	for i := 0; i < depth; i++ {
		sim.Schedule(des.Time(r.Uniform(0, window)), "bench", nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
		sim.Schedule(sim.Now()+des.Time(r.Uniform(0, window)), "bench", nop)
	}
}

// DESTicker measures one ticker firing: the kernel pops the tick event
// and the ticker re-arms. The hoisted fire closure keeps the re-arm from
// allocating a fresh func every period.
func DESTicker(b *testing.B) {
	sim := des.New()
	period := func() des.Time { return 1 }
	tick := sim.NewTicker("bench-tick", period, func() {})
	_ = tick
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// TickerStorm measures a population of tickers interleaving — the shape
// of every netsim experiment, where each router holds a refresh timer.
// One iteration is one tick firing somewhere in the population.
func TickerStorm(b *testing.B) {
	sim := des.New()
	const n = 100
	for i := 0; i < n; i++ {
		p := 1 + des.Time(i)*0.01 // spread periods so firings interleave
		period := func() des.Time { return p }
		sim.NewTicker("bench-tick", period, func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// PeriodicStep measures one cluster firing of the Periodic Messages model
// at population n on the engine EngineAuto picks: the heap engine at
// n=20, O(k log N) in the cluster size k, and the bucket engine from
// n=100 on, O(k) — either way not O(N log N) in the population. The
// configuration pins the system in the desynchronized steady state so k
// measures the engine, not the physics: Tp scales with n (n=20 gives
// the paper's 121 s) to hold the expiry density per Tc window constant —
// at the paper's fixed Tp = 121 an n=1000 system saturates (N·Tc ≈ Tp)
// — and Tr = Tp/20 is jitter far above the synchronization threshold,
// since a benchmark long enough to synchronize would silently switch to
// measuring O(N) clusters on every engine.
func PeriodicStep(b *testing.B, n int) {
	sys := periodic.New(PeriodicBenchConfig(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step()
	}
}

// PeriodicStepObserved is PeriodicStep with a counting observer: the
// hook adds one branch and one atomic add per cluster firing, and must
// not change the engine's allocs/op.
func PeriodicStepObserved(b *testing.B, n int) {
	cfg := PeriodicBenchConfig(n)
	cfg.Observer = &benchObserver{}
	sys := periodic.New(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step()
	}
}

// PeriodicStepLargeN is PeriodicStep at the populations the
// structure-of-arrays bucket engine was built for: one cluster firing at
// N = 10k–100k, still 0 allocs/op in steady state. The engine is pinned
// explicitly so the benchmark keeps measuring the bucket path wherever
// the auto threshold (N ≥ 50) sits.
func PeriodicStepLargeN(b *testing.B, n int) {
	cfg := PeriodicBenchConfig(n)
	cfg.Engine = periodic.EngineBucket
	sys := periodic.New(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Step()
	}
}

// PeriodicBenchConfig returns the scaled configuration PeriodicStep
// benchmarks run under.
func PeriodicBenchConfig(n int) periodic.Config {
	tp := 6.05 * float64(n)
	return periodic.Config{
		N:      n,
		Tc:     0.11,
		Jitter: jitter.Uniform{Tp: tp, Tr: tp / 20},
		Seed:   1,
	}
}

// benchMembers builds a deterministic scattered expiry set.
func benchMembers(n int) []cluster.Member {
	r := rng.New(7)
	ms := make([]cluster.Member, n)
	for i := range ms {
		ms[i] = cluster.Member{ID: i, Expiry: r.Uniform(0, 121)}
	}
	return ms
}

// ClusterGrow measures the reference copy+sort+scan cluster computation.
func ClusterGrow(b *testing.B, n int) {
	ms := benchMembers(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.Grow(ms, 0.11)
	}
}

// ClusterGrowSorted measures the pre-sorted fast path: a single linear
// admission scan, no copy, no allocation.
func ClusterGrowSorted(b *testing.B, n int) {
	ms := benchMembers(n)
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Expiry != ms[j].Expiry {
			return ms[i].Expiry < ms[j].Expiry
		}
		return ms[i].ID < ms[j].ID
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.GrowSorted(ms, 0.11)
	}
}

// ClusterPartition measures the full pending-state decomposition used by
// LargestPending sampling.
func ClusterPartition(b *testing.B, n int) {
	ms := benchMembers(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.Partition(ms, 0.11)
	}
}
