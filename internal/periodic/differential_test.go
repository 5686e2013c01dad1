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

// heapSystem is a binary-heap engine, the second differential oracle
// beside stepReference: a min-heap of router ids keyed by (expiry, id),
// from which a Step pops one cluster and pushes the re-armed timers back,
// in O(k log N) for cluster size k. It shares no index code with the
// bucket engine. It embeds a System for its expiries, RNG and Event
// scratch; that System's own day index goes stale, so drive a heapSystem
// only through the methods defined here and the read-only ones (Now,
// Expiries, LargestPending).
type heapSystem struct {
	*System
	heap []int32
}

func newHeapSystem(cfg Config) *heapSystem {
	h := &heapSystem{System: New(cfg), heap: make([]int32, 0, cfg.N)}
	h.rebuildHeap()
	return h
}

// TriggerUpdate is System.TriggerUpdate on the heap's index.
func (h *heapSystem) TriggerUpdate() {
	h.System.TriggerUpdate()
	h.rebuildHeap()
}

// SetExpiries is System.SetExpiries on the heap's index.
func (h *heapSystem) SetExpiries(e []float64) {
	h.System.SetExpiries(e)
	h.rebuildHeap()
}

// NextExpiry peeks the heap's root.
func (h *heapSystem) NextExpiry() float64 { return h.expiry[h.heap[0]] }

// Step pops the cluster off the heap. The heap yields routers in
// (expiry, id) order, so the admission loop sees exactly the sorted
// prefix cluster.Grow would, and its window test is the same
// floating-point expression as System.Step's.
func (h *heapSystem) Step() Event {
	s := h.System
	members, expiries := s.evMembers, s.evExpiries
	head := h.pop()
	t := s.expiry[head]
	members[0], expiries[0] = int(head), t
	k := 1
	for len(h.heap) > 0 {
		e := s.expiry[h.heap[0]]
		if e < t+float64(k)*s.cfg.Tc || e == t {
			members[k], expiries[k] = int(h.pop()), e
			k++
			continue
		}
		break
	}
	end := t + float64(k)*s.cfg.Tc
	s.now = end
	for i, id := range members[:k] {
		delay := s.cfg.Jitter.Delay(s.r, id)
		var next float64
		switch s.cfg.Reset {
		case ResetOnExpiry:
			next = expiries[i] + delay
			if next < end {
				next = end
			}
		default: // ResetAfterProcessing, the paper's rule
			next = end + delay
		}
		s.expiry[id] = next
		h.push(int32(id))
	}
	ev := Event{
		Start:    t,
		End:      end,
		Members:  members[:k],
		Expiries: expiries[:k],
		Next:     h.NextExpiry(),
	}
	if s.cfg.Observer != nil {
		s.cfg.Observer.RoundCompleted(s.now, k)
	}
	for _, fn := range s.onEvent {
		fn(ev)
	}
	return ev
}

// less reports whether router a's timer fires before router b's: earlier
// expiry, lower id on ties — the same order cluster.Grow sorts by.
func (h *heapSystem) less(a, b int32) bool {
	ea, eb := h.expiry[a], h.expiry[b]
	if ea != eb {
		return ea < eb
	}
	return a < b
}

// rebuildHeap re-heapifies all N routers in O(N).
func (h *heapSystem) rebuildHeap() {
	h.heap = h.heap[:0]
	for i := 0; i < h.cfg.N; i++ {
		h.heap = append(h.heap, int32(i))
	}
	for i := len(h.heap)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h *heapSystem) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.heap[i], h.heap[p]) {
			return
		}
		h.heap[i], h.heap[p] = h.heap[p], h.heap[i]
		i = p
	}
}

func (h *heapSystem) siftDown(i int) {
	n := len(h.heap)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		small := l
		if r := l + 1; r < n && h.less(h.heap[r], h.heap[l]) {
			small = r
		}
		if !h.less(h.heap[small], h.heap[i]) {
			return
		}
		h.heap[i], h.heap[small] = h.heap[small], h.heap[i]
		i = small
	}
}

func (h *heapSystem) pop() int32 {
	id := h.heap[0]
	n := len(h.heap) - 1
	h.heap[0] = h.heap[n]
	h.heap = h.heap[:n]
	if n > 0 {
		h.siftDown(0)
	}
	return id
}

func (h *heapSystem) push(id int32) {
	h.heap = append(h.heap, id)
	h.siftUp(len(h.heap) - 1)
}

// engine is what compareReference drives: New's System or the heap
// oracle.
type engine interface {
	Step() Event
	TriggerUpdate()
	SetExpiries([]float64)
	Now() float64
	Expiries() []float64
	LargestPending() int
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
					compareReference(t, newHeapSystem, Config{
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
		compareReference(t, newHeapSystem, cfg, phases)
		compareReference(t, New, cfg, phases)
	})
}

// compareReference steps the engine newEngine builds from cfg and a
// reference System, both from phases when non-nil, 400 times, injecting a
// TriggerUpdate at step 137, and fails on the first difference.
func compareReference[E engine](t *testing.T, newEngine func(Config) E, cfg Config, phases []float64) {
	const (
		steps  = 400
		trigAt = 137
	)
	eng, ref := newEngine(cfg), New(cfg)
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
	compareReference(t, newHeapSystem, Paper(10, 0.5, 42), []float64{5, 1, 5, 3, 1, 8, 1, 3, 5, 2})
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
	probe := New(cfg)
	probe.SetExpiries(phases)
	if probe.bucketGather(0); len(probe.bucket.cand) != cfg.N || cfg.N <= radixMinDay {
		t.Fatalf("day 0 holds %d of %d routers; want all, above radixMinDay %d",
			len(probe.bucket.cand), cfg.N, radixMinDay)
	}
	compareReference(t, New, cfg, phases)
	compareReference(t, newHeapSystem, cfg, phases)
}

// FuzzPeriodicEngines replays the bucket engine, the test-only heap
// engine and the reference stepper from one fuzzed configuration: seed,
// N in 1..200, Tr, reset rule, start state, the step at which
// TriggerUpdate fires (none when it is past the run), and optional
// lattice phases — router i at
// ±(b & 0x7f)·Tc for b = lattice[i mod len], negative when b's high bit
// is set (0x80 gives −0.0), which lands expiries exactly on window ends,
// on exact ties and before time 0. Inputs are clamped to valid configs
// — Tp = 121 s exceeds 200·Tc — and all three must emit bit-identical
// Events, NextExpiry values and final expiries. The seed corpus in
// testdata/fuzz/FuzzPeriodicEngines is drawn from the differential grid
// of TestHeapMatchesReference and TestBucketMatchesHeap, plus inputs with
// N above radixMinDay whose days the bucket engine radix-sorts, plus the
// kept-day boundaries: re-arms that land on or before the kept day
// (reset-on-expiry, Tr near Tp), a TriggerUpdate while a day is kept, a
// first Step that admits all N routers across five days, and two days
// nb apart linked in one bucket (N = 4, Tr near Tp). Run it
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
		heap, bucket, ref := newHeapSystem(cfg), New(cfg), New(cfg)
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
