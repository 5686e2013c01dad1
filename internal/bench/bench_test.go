// Package bench holds the hot-path benchmarks behind the cross-PR
// regression trajectory: des event scheduling, periodic cluster stepping,
// cluster growth, and the packet simulator's scenario windows. This is
// the one list of rows: CI pipes `go test -bench` of this package into
// cmd/benchguard, which gates every row of the newest out/BENCH_NNNN.json
// and, with -record, writes the next snapshot from the same output.
package bench

import (
	"fmt"
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

// BenchmarkDESScheduleStep measures the des kernel's steady state: one
// Step plus one Schedule per iteration against a warm event pool. With
// the free-list pool this must run at 0 allocs/op — every fired event's
// slot is recycled by the next Schedule.
func BenchmarkDESScheduleStep(b *testing.B) { desScheduleStep(b, nil) }

// BenchmarkDESScheduleStepObserved is DESScheduleStep with a counting
// observer installed: the steady state must stay at 0 allocs/op, paying
// only the atomic increments per event.
func BenchmarkDESScheduleStepObserved(b *testing.B) { desScheduleStep(b, &benchObserver{}) }

func desScheduleStep(b *testing.B, obs des.Observer) {
	sim := des.New()
	sim.SetObserver(obs)
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

// BenchmarkDESScheduleCancel measures schedule-then-cancel churn — the
// routing agents' timer re-arm pattern — which must likewise recycle
// slots without allocating.
func BenchmarkDESScheduleCancel(b *testing.B) {
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

// BenchmarkDESScheduleFire measures the kernel's steady state — one Step
// plus one Schedule per iteration — at a configurable pending-event depth
// on each queue backend. The prefill scatters expiries uniformly over a
// window of mean spacing one, and each fired event is replaced by a new
// one at a uniform offset past the horizon, so depth stays constant and
// the queue keeps its spread. This is the backend crossover benchmark:
// the heap pays O(log depth) per op while the calendar queue stays O(1)
// amortized, which is the whole case for the calendar backend at
// large-N populations. At depth 100k the calendar's day buckets keep
// growing to new high-water lengths for millions of ops, so that row's
// B/op falls with b.N (0 allocs/op; about 1 B/op over 1 s, 10 over
// 100 ms).
func BenchmarkDESScheduleFire(b *testing.B) {
	for _, backend := range []des.Backend{des.BackendHeap, des.BackendCalendar} {
		for _, depth := range []int{1000, 100000} {
			b.Run(fmt.Sprintf("backend=%s/depth=%d", backend, depth), func(b *testing.B) {
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
			})
		}
	}
}

// BenchmarkPeriodicStep measures one cluster firing of the Periodic
// Messages model at population n on its bucket engine: O(k) in the
// cluster size k, not O(N log N) in the population. The configuration
// pins the system in the desynchronized steady state so k measures the
// engine, not the physics: Tp scales with n (n=20 gives the paper's
// 121 s) to hold the expiry density per Tc window constant — at the
// paper's fixed Tp = 121 an n=1000 system saturates (N·Tc ≈ Tp) — and
// Tr = Tp/20 is jitter far above the synchronization threshold, since a
// benchmark long enough to synchronize would silently switch to
// measuring O(N) clusters. Its days hold about one router each;
// PeriodicSyncRound covers crowded days.
func BenchmarkPeriodicStep(b *testing.B) { periodicSteps(b, []int{20, 100, 1000}, nil) }

// BenchmarkPeriodicStepObserved is PeriodicStep with a counting
// observer: the hook adds one branch and one atomic add per cluster
// firing, and must not change the engine's allocs/op.
func BenchmarkPeriodicStepObserved(b *testing.B) {
	periodicSteps(b, []int{20, 100, 1000}, &benchObserver{})
}

// BenchmarkPeriodicStepLargeN is PeriodicStep at bucket-engine scale,
// under the name the committed BENCH_*.json snapshots record.
func BenchmarkPeriodicStepLargeN(b *testing.B) { periodicSteps(b, []int{10000, 100000}, nil) }

// BenchmarkPeriodicSyncRound measures one full round of a synchronized
// system per op: Steps until n routers have fired, at the ext_largen
// point (Tp = 6.05·n, Tr = 2.5·Tc, synchronized start). There the
// cluster holds together, so each round re-arms all n timers into one or
// two crowded days, and the row times the crowded-day gather and the
// radix sort that the desynchronized PeriodicStep rows never reach. The
// first round — an n-way tie at time 0 — and the sort scratch it
// allocates run before the timer starts.
func BenchmarkPeriodicSyncRound(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			tp := 6.05 * float64(n)
			sys := periodic.New(periodic.Config{
				N:      n,
				Tc:     0.11,
				Jitter: jitter.Uniform{Tp: tp, Tr: 2.5 * 0.11},
				Start:  periodic.StartSynchronized,
				Seed:   1,
			})
			round := func() {
				for fired := 0; fired < n; {
					fired += sys.Step().Size()
				}
			}
			round()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
		})
	}
}

func periodicSteps(b *testing.B, ns []int, obs periodic.Observer) {
	for _, n := range ns {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			cfg := periodicBenchConfig(n)
			cfg.Observer = obs
			sys := periodic.New(cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.Step()
			}
		})
	}
}

// periodicBenchConfig returns the scaled configuration the periodic
// benchmarks run under.
func periodicBenchConfig(n int) periodic.Config {
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

// BenchmarkClusterGrow measures the reference copy+sort+scan cluster
// computation.
func BenchmarkClusterGrow(b *testing.B) {
	for _, n := range []int{20, 1000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			ms := benchMembers(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cluster.Grow(ms, 0.11)
			}
		})
	}
}

// BenchmarkClusterGrowSorted measures the pre-sorted fast path: a single
// linear admission scan, no copy, no allocation.
func BenchmarkClusterGrowSorted(b *testing.B) {
	for _, n := range []int{20, 1000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			ms := benchMembers(n)
			cluster.SortMembers(ms)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cluster.GrowSorted(ms, 0.11)
			}
		})
	}
}

// BenchmarkPeriodicLargestPending measures the pending-state
// decomposition behind LargestPending sampling: one sort of the n
// expiries and one cluster walk. The first call allocates the system's
// analysis scratch, so it runs before the timer starts and the timed
// calls allocate nothing.
func BenchmarkPeriodicLargestPending(b *testing.B) {
	for _, n := range []int{20, 1000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			sys := periodic.New(periodicBenchConfig(n))
			sys.LargestPending()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.LargestPending()
			}
		})
	}
}
