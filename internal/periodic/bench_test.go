package periodic

import (
	"fmt"
	"testing"

	"routesync/internal/jitter"
)

// BenchmarkStep compares both engines against the sort-based reference
// at several populations. The engines' advantage grows with N: the heap
// pays O(k log N) and the bucket engine O(k) per firing for cluster size
// k, while the reference re-sorts all N expiries. The configuration pins
// the desynchronized steady state (Tp scaled with N, Tr far above the
// synchronization threshold) so k measures the engine, not the physics —
// see BenchmarkPeriodicStep in internal/bench.
func BenchmarkStep(b *testing.B) {
	for _, n := range []int{20, 100, 1000} {
		for _, engine := range []string{"heap", "bucket", "reference"} {
			b.Run(fmt.Sprintf("N=%d/%s", n, engine), func(b *testing.B) {
				tp := 6.05 * float64(n)
				s := newSystem(Config{
					N:      n,
					Tc:     0.11,
					Jitter: jitter.Uniform{Tp: tp, Tr: tp / 20},
					Seed:   1,
				}, engine == "bucket")
				step := s.Step
				if engine == "reference" {
					step = s.stepReference
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step()
				}
			})
		}
	}
}
