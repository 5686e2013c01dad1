package periodic

import (
	"fmt"
	"testing"

	"routesync/internal/jitter"
)

// TestBucketMatchesHeap differential-tests the structure-of-arrays bucket
// engine against the heap engine: for a grid of seeds, reset rules and
// start states — with a TriggerUpdate injected mid-run — the two engines
// must produce identical Event sequences, bit for bit. N is below the
// EngineAuto threshold so the test covers the engine override too; ties
// are exercised by the synchronized start (every expiry equal) and the
// trigger (every expiry collapsed to now).
func TestBucketMatchesHeap(t *testing.T) {
	const (
		n      = 25
		steps  = 400
		trigAt = 137
	)
	for seed := int64(1); seed <= 12; seed++ {
		for _, reset := range []TimerReset{ResetAfterProcessing, ResetOnExpiry} {
			for _, start := range []StartState{StartUnsynchronized, StartSynchronized} {
				name := fmt.Sprintf("seed=%d/%v/%v", seed, reset, start)
				t.Run(name, func(t *testing.T) {
					cfg := Config{
						N:      n,
						Tc:     0.11,
						Jitter: jitter.Uniform{Tp: 121, Tr: 0.5},
						Reset:  reset,
						Start:  start,
						Seed:   seed,
					}
					cfg.Engine = EngineHeap
					heap := New(cfg)
					cfg.Engine = EngineBucket
					bucket := New(cfg)
					for i := 0; i < steps; i++ {
						if i == trigAt {
							heap.TriggerUpdate()
							bucket.TriggerUpdate()
						}
						he, be := heap.Step(), bucket.Step()
						if !eventsEqual(he, be) {
							t.Fatalf("step %d diverged:\nheap:   %+v\nbucket: %+v", i, he, be)
						}
						if hn, bn := heap.NextExpiry(), bucket.NextExpiry(); hn != bn {
							t.Fatalf("step %d NextExpiry diverged: heap %v bucket %v", i, hn, bn)
						}
					}
					if heap.Now() != bucket.Now() {
						t.Fatalf("Now diverged: heap %v bucket %v", heap.Now(), bucket.Now())
					}
					hex, bex := heap.Expiries(), bucket.Expiries()
					for id := range hex {
						if hex[id] != bex[id] {
							t.Fatalf("router %d final expiry diverged: heap %v bucket %v",
								id, hex[id], bex[id])
						}
					}
					if hl, bl := heap.LargestPending(), bucket.LargestPending(); hl != bl {
						t.Fatalf("LargestPending diverged: heap %d bucket %d", hl, bl)
					}
				})
			}
		}
	}
}

// TestBucketMatchesHeapLargeN replays the two engines at a population
// above the EngineAuto threshold — the scale the bucket engine exists
// for — including the saturated synchronized start where a single
// cluster holds every router and the candidate sort sees N-way ties.
func TestBucketMatchesHeapLargeN(t *testing.T) {
	n := 6000
	steps := 3 * n // a few full rounds
	if testing.Short() {
		n, steps = 4500, 4500
	}
	for _, start := range []StartState{StartUnsynchronized, StartSynchronized} {
		t.Run(start.String(), func(t *testing.T) {
			tp := 6.05 * float64(n)
			cfg := Config{
				N:      n,
				Tc:     0.11,
				Jitter: jitter.Uniform{Tp: tp, Tr: tp / 20},
				Start:  start,
				Seed:   7,
			}
			cfg.Engine = EngineHeap
			heap := New(cfg)
			cfg.Engine = EngineAuto // must resolve to bucket at this N
			bucket := New(cfg)
			if !bucket.useBucket {
				t.Fatalf("EngineAuto did not pick the bucket engine at N=%d", n)
			}
			for i := 0; i < steps; i++ {
				he, be := heap.Step(), bucket.Step()
				if !eventsEqual(he, be) {
					t.Fatalf("step %d diverged:\nheap:   %+v\nbucket: %+v", i, he, be)
				}
			}
		})
	}
}

// TestEngineAutoThreshold pins where EngineAuto switches engines: the
// heap engine just below bucketEngineMinN, the bucket engine from it on.
func TestEngineAutoThreshold(t *testing.T) {
	for _, c := range []struct {
		n          int
		wantBucket bool
	}{{bucketEngineMinN - 1, false}, {bucketEngineMinN, true}, {1000, true}} {
		if got := New(Paper(c.n, 0.5, 1)).useBucket; got != c.wantBucket {
			t.Errorf("EngineAuto at N=%d: bucket engine %v, want %v", c.n, got, c.wantBucket)
		}
	}
}

// TestBucketSetExpiries checks the bucket index is rebuilt correctly when
// the expiry set is overridden wholesale, including exact ties.
func TestBucketSetExpiries(t *testing.T) {
	cfg := Paper(10, 0.5, 42)
	cfg.Engine = EngineHeap
	heap := New(cfg)
	cfg.Engine = EngineBucket
	bucket := New(cfg)
	phases := []float64{5, 1, 5, 3, 1, 8, 1, 3, 5, 2}
	heap.SetExpiries(phases)
	bucket.SetExpiries(phases)
	for i := 0; i < 50; i++ {
		he, be := heap.Step(), bucket.Step()
		if !eventsEqual(he, be) {
			t.Fatalf("step %d diverged:\nheap:   %+v\nbucket: %+v", i, he, be)
		}
	}
}

// TestEngineString pins the engine names used in docs and benchmarks.
func TestEngineString(t *testing.T) {
	cases := map[Engine]string{EngineAuto: "auto", EngineHeap: "heap", EngineBucket: "bucket"}
	for e, want := range cases {
		if e.String() != want {
			t.Errorf("Engine(%d).String() = %q, want %q", int(e), e.String(), want)
		}
	}
}
