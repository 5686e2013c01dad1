package periodic

import (
	"fmt"
	"math"
	"testing"

	"routesync/internal/cluster"
	"routesync/internal/jitter"
)

// stepReference is the original sort-based Step: rebuild the full member
// set and apply cluster.Grow. It is the executable specification both
// engines are differential-tested against. A System driven by it must be
// stepped only through it, with referenceNextExpiry in place of
// NextExpiry, because it leaves the engine's index stale.
func (s *System) stepReference() Event {
	ms := make([]cluster.Member, s.cfg.N)
	for i := range ms {
		ms[i] = cluster.Member{ID: i, Expiry: s.expiry[i]}
	}
	c := cluster.Grow(ms, s.cfg.Tc)
	start := c.Members[0].Expiry
	end := start + float64(c.Size())*s.cfg.Tc
	s.now = end
	ev := Event{
		Start:    start,
		End:      end,
		Members:  s.evMembers[:c.Size()],
		Expiries: s.evExpiries[:c.Size()],
	}
	for i, m := range c.Members {
		ev.Members[i] = m.ID
		ev.Expiries[i] = m.Expiry
		delay := s.cfg.Jitter.Delay(s.r, m.ID)
		var next float64
		switch s.cfg.Reset {
		case ResetOnExpiry:
			next = m.Expiry + delay
			if next < end {
				next = end
			}
		default: // ResetAfterProcessing, the paper's rule
			next = end + delay
		}
		s.expiry[m.ID] = next
	}
	ev.Next = s.referenceNextExpiry()
	if s.cfg.Observer != nil {
		s.cfg.Observer.RoundCompleted(s.now, c.Size())
	}
	for _, fn := range s.onEvent {
		fn(ev)
	}
	return ev
}

// referenceNextExpiry is NextExpiry by a linear scan of every expiry.
func (s *System) referenceNextExpiry() float64 {
	min := math.Inf(1)
	for _, e := range s.expiry {
		if e < min {
			min = e
		}
	}
	return min
}

// TestHeapMatchesReference differential-tests the heap engine against the
// sort-based reference (stepReference): for a grid of seeds, reset rules
// and start states — with a TriggerUpdate injected mid-run — the two must
// produce identical Event sequences, bit for bit. The lattice case puts
// router i at i·Tc, so router 1 sits exactly on the first window's end
// t + k·Tc, which the admission test must exclude.
func TestHeapMatchesReference(t *testing.T) {
	const n = 25
	for seed := int64(1); seed <= 12; seed++ {
		for _, reset := range []TimerReset{ResetAfterProcessing, ResetOnExpiry} {
			for _, start := range []StartState{StartUnsynchronized, StartSynchronized} {
				name := fmt.Sprintf("seed=%d/%v/%v", seed, reset, start)
				t.Run(name, func(t *testing.T) {
					compareReference(t, false, Config{
						N:      n,
						Tc:     0.11,
						Jitter: jitter.Uniform{Tp: 121, Tr: 0.5},
						Reset:  reset,
						Start:  start,
						Seed:   seed,
					}, nil)
				})
			}
		}
	}
	t.Run("lattice", func(t *testing.T) {
		cfg := Paper(n, 0.5, 1)
		phases := make([]float64, n)
		for i := range phases {
			phases[i] = float64(i) * cfg.Tc
		}
		compareReference(t, false, cfg, phases)
	})
}

// compareReference steps an engine System — the bucket engine when bucket
// is set, else the heap — and a reference System built from cfg, from
// phases when non-nil, 400 times, injecting a TriggerUpdate at step 137,
// and fails on the first difference.
func compareReference(t *testing.T, bucket bool, cfg Config, phases []float64) {
	const (
		steps  = 400
		trigAt = 137
	)
	eng, ref := newSystem(cfg, bucket), newSystem(cfg, false)
	if phases != nil {
		eng.SetExpiries(phases)
		ref.SetExpiries(phases)
	}
	for i := 0; i < steps; i++ {
		if i == trigAt {
			eng.TriggerUpdate()
			ref.TriggerUpdate()
		}
		ee, re := eng.Step(), ref.stepReference()
		if !eventsEqual(ee, re) {
			t.Fatalf("step %d diverged:\nengine: %+v\nref:    %+v", i, ee, re)
		}
	}
	if eng.Now() != ref.Now() {
		t.Fatalf("Now diverged: engine %v ref %v", eng.Now(), ref.Now())
	}
	eex, rex := eng.Expiries(), ref.Expiries()
	for id := range eex {
		if eex[id] != rex[id] {
			t.Fatalf("router %d final expiry diverged: engine %v ref %v", id, eex[id], rex[id])
		}
	}
	if el, rl := eng.LargestPending(), ref.LargestPending(); el != rl {
		t.Fatalf("LargestPending diverged: engine %d ref %d", el, rl)
	}
}

// TestHeapMatchesReferenceSetExpiries checks the heap is rebuilt correctly
// when the expiry set is overridden wholesale, including exact ties.
func TestHeapMatchesReferenceSetExpiries(t *testing.T) {
	// Bespoke phases with duplicates to exercise the (expiry, id) tie-break.
	compareReference(t, false, Paper(10, 0.5, 42), []float64{5, 1, 5, 3, 1, 8, 1, 3, 5, 2})
}

// TestRadixDayMatchesReference puts 100 routers on one bucket day — more
// than radixMinDay, so the day is radix-sorted — with −0.0 and +0.0,
// negative phases, exact ties and distinct keys mixed, and checks both
// engines against the reference. The first cluster holds the whole day,
// so its Members pin the full sort order.
func TestRadixDayMatchesReference(t *testing.T) {
	cfg := Paper(100, 0.5, 3)
	negZero := math.Copysign(0, -1)
	phases := make([]float64, cfg.N)
	for i := range phases {
		switch i % 4 {
		case 0:
			phases[i] = negZero
		case 1:
			phases[i] = 0
		case 2:
			phases[i] = -0.01 * float64(i%7) // ties, and −0 again at i%7 == 0
		default:
			phases[i] = 0.003 * float64(i) // distinct
		}
	}
	probe := newSystem(cfg, true)
	probe.SetExpiries(phases)
	if probe.bucketGather(0); len(probe.bucket.cand) != cfg.N || cfg.N <= radixMinDay {
		t.Fatalf("day 0 holds %d of %d routers; want all, above radixMinDay %d",
			len(probe.bucket.cand), cfg.N, radixMinDay)
	}
	for _, bucket := range []bool{false, true} {
		compareReference(t, bucket, cfg, phases)
	}
}

// FuzzPeriodicEngines replays the heap engine, the bucket engine and the
// reference stepper from one fuzzed configuration: seed, N in 1..200, Tr,
// reset rule, start state, the step at which TriggerUpdate fires (none
// when it is past the run), and optional lattice phases — router i at
// ±(b & 0x7f)·Tc for b = lattice[i mod len], negative when b's high bit
// is set (0x80 gives −0.0), which lands expiries exactly on window ends,
// on exact ties and before time 0. Inputs are clamped to valid configs
// — Tp = 121 s exceeds 200·Tc — and all three must emit bit-identical
// Events, NextExpiry values and final expiries. The seed corpus in
// testdata/fuzz/FuzzPeriodicEngines is drawn from the differential grid
// of TestHeapMatchesReference and TestBucketMatchesHeap, plus inputs with
// N above radixMinDay whose days the bucket engine radix-sorts. Run it
// with
//
//	go test -run '^$' -fuzz FuzzPeriodicEngines -fuzztime 20s -fuzzminimizetime 100x ./internal/periodic/
func FuzzPeriodicEngines(f *testing.F) {
	const steps = 300
	f.Fuzz(func(t *testing.T, seed int64, n uint8, tr float64, resetOnExpiry, synchronized bool, trigAt uint16, lattice []byte) {
		if math.IsNaN(tr) || math.IsInf(tr, 0) {
			tr = 0
		}
		cfg := Config{
			N:      1 + int(n)%200,
			Tc:     0.11,
			Jitter: jitter.Uniform{Tp: 121, Tr: math.Mod(math.Abs(tr), 121)},
			Seed:   seed,
		}
		if resetOnExpiry {
			cfg.Reset = ResetOnExpiry
		}
		if synchronized {
			cfg.Start = StartSynchronized
		}
		heap, bucket, ref := newSystem(cfg, false), newSystem(cfg, true), newSystem(cfg, false)
		if len(lattice) > 0 {
			phases := make([]float64, cfg.N)
			for i := range phases {
				b := lattice[i%len(lattice)]
				phases[i] = float64(b&0x7f) * cfg.Tc
				if b&0x80 != 0 {
					phases[i] = -phases[i]
				}
			}
			heap.SetExpiries(phases)
			bucket.SetExpiries(phases)
			ref.SetExpiries(phases)
		}
		for i := 0; i < steps; i++ {
			if i == int(trigAt) {
				heap.TriggerUpdate()
				bucket.TriggerUpdate()
				ref.TriggerUpdate()
			}
			he, be, re := heap.Step(), bucket.Step(), ref.stepReference()
			if !eventsEqual(he, re) || !eventsEqual(be, re) {
				t.Fatalf("step %d diverged:\nheap:   %+v\nbucket: %+v\nref:    %+v", i, he, be, re)
			}
			hn, bn, rn := heap.NextExpiry(), bucket.NextExpiry(), ref.referenceNextExpiry()
			if hn != rn || bn != rn {
				t.Fatalf("step %d NextExpiry diverged: heap %v bucket %v ref %v", i, hn, bn, rn)
			}
		}
		hex, bex, rex := heap.Expiries(), bucket.Expiries(), ref.Expiries()
		for id := range rex {
			if hex[id] != rex[id] || bex[id] != rex[id] {
				t.Fatalf("router %d final expiry diverged: heap %v bucket %v ref %v",
					id, hex[id], bex[id], rex[id])
			}
		}
	})
}

func eventsEqual(a, b Event) bool {
	if a.Start != b.Start || a.End != b.End || a.Next != b.Next || len(a.Members) != len(b.Members) {
		return false
	}
	for i := range a.Members {
		if a.Members[i] != b.Members[i] || a.Expiries[i] != b.Expiries[i] {
			return false
		}
	}
	return true
}
