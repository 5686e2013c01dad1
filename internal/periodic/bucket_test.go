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

// TestBucketMatchesHeapLargeN replays the two engines at populations
// above bucketEngineMinN — the scale the bucket engine exists for. At
// Tr = Tp/20 the synchronized start's first round is one cluster holding
// every router, a day of N exactly tied expiries. The ext_largen case
// (Tp = 6.05·N, Tr = 2.5·Tc, synchronized start) keeps the cluster
// together, so every round re-arms N distinct expiries inside one or two
// days and the radix sort orders them digit by digit; it must cover at
// least five rounds.
func TestBucketMatchesHeapLargeN(t *testing.T) {
	n := 6000
	steps := 3 * n // a few full rounds
	if testing.Short() {
		n, steps = 4500, 4500
	}
	tp := func(n int) float64 { return 6.05 * float64(n) }
	cases := []struct {
		name   string
		n      int
		tr     float64
		start  StartState
		steps  int
		rounds int // minimum round windows the steps must cover
	}{
		{StartUnsynchronized.String(), n, tp(n) / 20, StartUnsynchronized, steps, 0},
		{StartSynchronized.String(), n, tp(n) / 20, StartSynchronized, steps, 0},
		{"ext_largen-synchronized", 2000, 2.5 * 0.11, StartSynchronized, 40, 5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{
				N:      c.n,
				Tc:     0.11,
				Jitter: jitter.Uniform{Tp: tp(c.n), Tr: c.tr},
				Start:  c.start,
				Seed:   7,
			}
			heap := newSystem(cfg, false)
			bucket := New(cfg) // must pick the bucket engine at this N
			if !bucket.useBucket {
				t.Fatalf("New did not pick the bucket engine at N=%d", c.n)
			}
			for i := 0; i < c.steps; i++ {
				he, be := heap.Step(), bucket.Step()
				if !eventsEqual(he, be) {
					t.Fatalf("step %d diverged:\nheap:   %+v\nbucket: %+v", i, he, be)
				}
			}
			if horizon := float64(c.rounds) * heap.RoundWindow(); heap.Now() < horizon {
				t.Fatalf("%d steps reached t=%v, short of %d rounds (%v)", c.steps, heap.Now(), c.rounds, horizon)
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
