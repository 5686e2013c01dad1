package periodic

import (
	"fmt"
	"math"
	"testing"

	"routesync/internal/jitter"
)

// TestBucketMatchesHeap differential-tests the structure-of-arrays bucket
// engine against the test-only heap engine: for a grid of seeds, reset
// rules and start states — with a TriggerUpdate injected mid-run — the two
// engines must produce identical Event sequences, bit for bit. N = 25 is
// a population the heap engine used to run; ties are exercised by the
// synchronized start (every expiry equal) and the trigger (every expiry
// collapsed to now).
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
					heap, bucket := newHeapSystem(cfg), New(cfg)
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
// of thousands — the scale the bucket engine exists for. At
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
			heap, bucket := newHeapSystem(cfg), New(cfg)
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

// TestEngineAutoThreshold pins that New has no engine threshold: at
// populations on both sides of N = 50, where New used to switch from the
// heap to the bucket engine, New's System replays the heap oracle bit
// for bit, NextExpiry included, with and without a TriggerUpdate.
func TestEngineAutoThreshold(t *testing.T) {
	for _, n := range []int{1, 2, 49, 50, 1000} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			cfg := Paper(n, 0.5, 1)
			cfg.Jitter = jitter.Uniform{Tp: 6.05 * float64(n), Tr: 0.5}
			heap, bucket := newHeapSystem(cfg), New(cfg)
			for i := 0; i < 300; i++ {
				if i == 150 {
					heap.TriggerUpdate()
					bucket.TriggerUpdate()
				}
				stepBoth(t, heap, bucket, i)
			}
		})
	}
}

// TestBucketSetExpiries checks the bucket index is rebuilt correctly when
// the expiry set is overridden wholesale, including exact ties.
func TestBucketSetExpiries(t *testing.T) {
	cfg := Paper(10, 0.5, 42)
	heap, bucket := newHeapSystem(cfg), New(cfg)
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

// kept returns how many routers of the bucket engine's frontier day are
// held in cand for the next Step.
func kept(s *System) int { return len(s.bucket.cand) - s.bucket.ci }

// bucketList returns the router ids linked in physical bucket bi, in list
// order.
func bucketList(s *System, bi int) []int32 {
	var ids []int32
	for id := s.bucket.head[bi]; id >= 0; id = s.bucket.next[id] {
		ids = append(ids, id)
	}
	return ids
}

// stepBoth steps the heap oracle and the bucket engine once each and
// fails on any difference in the Event or NextExpiry.
func stepBoth(t *testing.T, heap *heapSystem, bucket *System, step int) Event {
	t.Helper()
	he, be := heap.Step(), bucket.Step()
	if !eventsEqual(he, be) {
		t.Fatalf("step %d diverged:\nheap:   %+v\nbucket: %+v", step, he, be)
	}
	if hn, bn := heap.NextExpiry(), bucket.NextExpiry(); hn != bn {
		t.Fatalf("step %d NextExpiry diverged: heap %v bucket %v", step, hn, bn)
	}
	return be
}

// TestKeptDayRearm drives the reset-on-expiry rule with Tr just under Tp,
// so a re-armed timer can fire again almost at once: some land on the
// day the Step keeps for its successor, others on an earlier day, and
// either must drop the kept rest back into its bucket. The test counts
// both landings from the expiries before and after each Step, and
// checks every Step against the heap oracle.
func TestKeptDayRearm(t *testing.T) {
	cfg := Config{N: 40, Tc: 0.11, Jitter: jitter.Uniform{Tp: 121, Tr: 120.9}, Reset: ResetOnExpiry, Seed: 3}
	heap, bucket := newHeapSystem(cfg), New(cfg)
	before := make([]float64, cfg.N)
	fired := make([]bool, cfg.N)
	onKept, beforeKept := 0, 0
	for i := 0; i < 3000; i++ {
		copy(before, bucket.expiry)
		ev := stepBoth(t, heap, bucket, i)
		if ev.Size() == cfg.N {
			continue
		}
		for id := range fired {
			fired[id] = false
		}
		for _, id := range ev.Members {
			fired[id] = true
		}
		frontier := math.Inf(1)
		for id, e := range before {
			if !fired[id] && e < frontier {
				frontier = e
			}
		}
		kday := bucket.bucket.dayOf(frontier)
		for _, id := range ev.Members {
			switch d := bucket.bucket.dayOf(bucket.expiry[id]); {
			case d == kday:
				onKept++
			case d < kday:
				beforeKept++
			}
		}
	}
	if onKept == 0 || beforeKept == 0 {
		t.Fatalf("re-arms on the kept day %d, before it %d; want both", onKept, beforeKept)
	}
}

// TestKeptDayRebuild calls SetExpiries, then TriggerUpdate, while the
// bucket engine holds a kept day: both rebuild the index from the expiry
// array and must drop the kept rest with it. Routers 0.2 s apart on
// 1.32 s days fire one at a time, so every Step keeps the rest of its
// frontier's day.
func TestKeptDayRebuild(t *testing.T) {
	cfg := Paper(100, 0.5, 5)
	heap, bucket := newHeapSystem(cfg), New(cfg)
	phases := make([]float64, cfg.N)
	spread := func(from float64) {
		for i := range phases {
			phases[i] = from + 0.2*float64(cfg.N-i)
		}
		heap.SetExpiries(phases)
		bucket.SetExpiries(phases)
	}
	step := 0
	run := func(n int) {
		for end := step + n; step < end; step++ {
			stepBoth(t, heap, bucket, step)
		}
	}
	spread(0)
	run(3)
	for _, rebuild := range []string{"SetExpiries", "TriggerUpdate"} {
		if kept(bucket) == 0 {
			t.Fatalf("no day kept before %s", rebuild)
		}
		if rebuild == "SetExpiries" {
			spread(bucket.Now() + 0.1)
		} else {
			heap.TriggerUpdate()
			bucket.TriggerUpdate()
		}
		run(3)
	}
	run(300)
}

// TestStepAdmitsEveryRouter checks Steps whose cluster holds all N
// routers, so no frontier is found and nothing is kept: the synchronized
// start, and routers 0.05 s apart whose growing busy window admits them
// across several days. Each is checked against the reference stepper.
func TestStepAdmitsEveryRouter(t *testing.T) {
	spread := Paper(100, 0.5, 2)
	phases := make([]float64, spread.N)
	for i := range phases {
		phases[i] = 0.05 * float64(i)
	}
	sync := Paper(100, 0.5, 2)
	sync.Start = StartSynchronized
	for _, c := range []struct {
		name   string
		cfg    Config
		phases []float64
	}{{"synchronized", sync, nil}, {"spread", spread, phases}} {
		t.Run(c.name, func(t *testing.T) {
			eng, ref := New(c.cfg), New(c.cfg)
			if c.phases != nil {
				eng.SetExpiries(c.phases)
				ref.SetExpiries(c.phases)
				if d0, d1 := eng.bucket.dayOf(c.phases[0]), eng.bucket.dayOf(c.phases[len(c.phases)-1]); d1-d0 < 2 {
					t.Fatalf("phases span days %d..%d; want at least three", d0, d1)
				}
			}
			for i := 0; i < 50; i++ {
				ee, re := eng.Step(), ref.stepReference()
				if !eventsEqual(ee, re) {
					t.Fatalf("step %d diverged:\nengine: %+v\nref:    %+v", i, ee, re)
				}
				if i == 0 && (ee.Size() != c.cfg.N || kept(eng) != 0) {
					t.Fatalf("first Step fired %d of %d routers and kept %d; want all, none kept",
						ee.Size(), c.cfg.N, kept(eng))
				}
			}
		})
	}
}

// TestBucketAliasedDays puts routers on two days exactly nb days apart,
// so both share one physical bucket, interleaved in its list. Gathering
// the earlier day must detach only its own routers and leave the later
// day's linked, in order.
func TestBucketAliasedDays(t *testing.T) {
	cfg := Paper(10, 0.5, 4)
	heap, bucket := newHeapSystem(cfg), New(cfg)
	nb := len(bucket.bucket.head)
	w := 1 / bucket.bucket.invW
	early, late := 3.5*w, 3.5*w+float64(nb)*w
	// Even ids on the early day, odd ids on the late one; rebuild pushes
	// ids in order, so the bucket's list alternates between the two.
	phases := []float64{early, late, early + 0.3, late + 0.3, early + 0.6, 0, 1, 2, 30, 80}
	heap.SetExpiries(phases)
	bucket.SetExpiries(phases)
	b := &bucket.bucket
	if d0, d1 := b.dayOf(early), b.dayOf(late); d1-d0 != int64(nb) {
		t.Fatalf("days %d and %d are not nb = %d apart", d0, d1, nb)
	}
	bi := int(b.dayOf(early)) & b.mask
	if got := bucketList(bucket, bi); fmt.Sprint(got) != "[4 3 2 1 0]" {
		t.Fatalf("shared bucket holds %v, want [4 3 2 1 0]", got)
	}
	for i := 0; i < 5; i++ {
		stepBoth(t, heap, bucket, i) // ids 5, 6, 7, 8, then 0
	}
	if got := bucketList(bucket, bi); fmt.Sprint(got) != "[3 1]" {
		t.Fatalf("after gathering the early day the bucket holds %v, want [3 1]", got)
	}
	if kept(bucket) != 2 {
		t.Fatalf("kept %d routers of the early day, want ids 2 and 4", kept(bucket))
	}
	for i := 5; i < 300; i++ {
		stepBoth(t, heap, bucket, i)
	}
}
