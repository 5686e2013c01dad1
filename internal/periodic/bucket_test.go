package periodic

import (
	"fmt"
	"testing"

	"routesync/internal/jitter"
)

// TestBucketMatchesHeap differential-tests the structure-of-arrays bucket
// engine against the heap engine: for a grid of seeds, reset rules and
// start states — with a TriggerUpdate injected mid-run — the two engines
// must produce identical Event sequences, bit for bit. N is below
// bucketEngineMinN, so the bucket engine runs where New would not pick
// it; ties are exercised by the synchronized start (every expiry equal)
// and the trigger (every expiry collapsed to now).
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
					heap, bucket := newSystem(cfg, false), newSystem(cfg, true)
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
// above bucketEngineMinN — the scale the bucket engine exists for —
// including the saturated synchronized start where a single
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
			heap := newSystem(cfg, false)
			bucket := New(cfg) // must pick the bucket engine at this N
			if !bucket.useBucket {
				t.Fatalf("New did not pick the bucket engine at N=%d", n)
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

// TestEngineAutoThreshold pins where New switches engines: the
// heap engine just below bucketEngineMinN, the bucket engine from it on.
func TestEngineAutoThreshold(t *testing.T) {
	for _, c := range []struct {
		n          int
		wantBucket bool
	}{{bucketEngineMinN - 1, false}, {bucketEngineMinN, true}, {1000, true}} {
		if got := New(Paper(c.n, 0.5, 1)).useBucket; got != c.wantBucket {
			t.Errorf("New at N=%d: bucket engine %v, want %v", c.n, got, c.wantBucket)
		}
	}
}

// TestBucketSetExpiries checks the bucket index is rebuilt correctly when
// the expiry set is overridden wholesale, including exact ties.
func TestBucketSetExpiries(t *testing.T) {
	cfg := Paper(10, 0.5, 42)
	heap, bucket := newSystem(cfg, false), newSystem(cfg, true)
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
