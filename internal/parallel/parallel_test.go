package parallel

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"routesync/internal/rng"
)

// RunSeeded is Run with randomness partitioned for the caller: it
// derives n independent Park–Miller streams from seed — serially, before
// any worker starts, so the derivation cannot race — and hands stream i
// to fn(i). The per-index streams depend only on (seed, i), never on the
// worker count or schedule, which is what makes replicated-simulation
// output byte-identical between jobs=1 and jobs=GOMAXPROCS.
func RunSeeded[T any](n, jobs int, seed int64, fn func(i int, src *rng.Source) T) []T {
	if n <= 0 {
		return nil
	}
	parent := rng.New(seed)
	streams := make([]*rng.Source, n)
	for i := range streams {
		streams[i] = parent.Split()
	}
	return Run(n, jobs, func(i int) T { return fn(i, streams[i]) })
}

func TestRunIndexOrder(t *testing.T) {
	for _, jobs := range []int{1, 2, 7, 64} {
		got := Run(100, jobs, func(i int) int {
			if i%3 == 0 {
				time.Sleep(time.Microsecond) // shuffle completion order
			}
			return i * i
		})
		if len(got) != 100 {
			t.Fatalf("jobs=%d: len = %d", jobs, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("jobs=%d: out[%d] = %d, want %d", jobs, i, v, i*i)
			}
		}
	}
}

func TestRunIdenticalAcrossWorkerCounts(t *testing.T) {
	fn := func(i int) float64 {
		s := rng.New(int64(i) + 1)
		var sum float64
		for k := 0; k < 100; k++ {
			sum += s.Float64()
		}
		return sum
	}
	serial := Run(50, 1, fn)
	for _, jobs := range []int{2, 8, runtime.GOMAXPROCS(0)} {
		par := Run(50, jobs, fn)
		for i := range serial {
			if serial[i] != par[i] {
				t.Fatalf("jobs=%d: out[%d] = %v, want %v", jobs, i, par[i], serial[i])
			}
		}
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	const jobs = 3
	var inFlight, peak atomic.Int32
	Run(40, jobs, func(i int) int {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return i
	})
	if p := peak.Load(); p > jobs {
		t.Fatalf("observed %d concurrent jobs, cap is %d", p, jobs)
	}
}

func TestRunOrderedEmitsInOrder(t *testing.T) {
	var order []int
	vals := RunOrdered(30, 8, func(i int) int {
		if i == 0 {
			time.Sleep(2 * time.Millisecond) // hold back the first result
		}
		return i + 100
	}, func(i, v int) {
		order = append(order, i)
		if v != i+100 {
			t.Errorf("emit(%d) got %d", i, v)
		}
	})
	if len(order) != 30 || len(vals) != 30 {
		t.Fatalf("emitted %d, returned %d", len(order), len(vals))
	}
	for i, idx := range order {
		if idx != i {
			t.Fatalf("emission %d was index %d", i, idx)
		}
	}
}

func TestRunSeededDeterministicAcrossWorkerCounts(t *testing.T) {
	fn := func(i int, src *rng.Source) []float64 {
		draws := make([]float64, 20)
		for k := range draws {
			draws[k] = src.Float64()
		}
		return draws
	}
	serial := RunSeeded(32, 1, 12345, fn)
	for _, jobs := range []int{3, 16} {
		par := RunSeeded(32, jobs, 12345, fn)
		for i := range serial {
			for k := range serial[i] {
				if serial[i][k] != par[i][k] {
					t.Fatalf("jobs=%d: stream %d draw %d = %v, want %v",
						jobs, i, k, par[i][k], serial[i][k])
				}
			}
		}
	}
	// Distinct indices must get distinct streams.
	if serial[0][0] == serial[1][0] && serial[0][1] == serial[1][1] {
		t.Fatal("streams 0 and 1 start identically")
	}
}

func TestRunEmptyAndZeroJobs(t *testing.T) {
	if got := Run(0, 4, func(i int) int { return i }); got != nil {
		t.Fatalf("n=0 returned %v", got)
	}
	if got := RunSeeded(0, 4, 1, func(i int, _ *rng.Source) int { return i }); got != nil {
		t.Fatalf("seeded n=0 returned %v", got)
	}
	// jobs <= 0 means one worker per CPU, not zero workers.
	got := Run(5, 0, func(i int) int { return i })
	if len(got) != 5 {
		t.Fatalf("jobs=0: len = %d", len(got))
	}
	if Workers(0) != runtime.GOMAXPROCS(0) || Workers(-3) != runtime.GOMAXPROCS(0) || Workers(6) != 6 {
		t.Fatal("Workers normalization wrong")
	}
}
