package periodic

import (
	"math"

	"routesync/internal/cluster"
)

// bucketEngineMinN is the population size at which New switches from
// the heap to the bucket engine: the measured crossover of ns per
// firing (EXPERIMENTS.md, "Periodic engine"). The heap wins at N = 20
// by about 1.14×, the two tie around N = 32–40, and the bucket engine
// wins from N = 50 on (median ratio 0.92 at N = 50 and 64, 0.88 at 100).
const bucketEngineMinN = 50

// bucketMaxVB caps day indices so arithmetic on far-future expiries
// cannot overflow int64.
const bucketMaxVB = int64(1) << 62

// bucketState is the structure-of-arrays engine state. Time is cut into
// fixed-width "days" of w = Tp/N + Tc seconds — about one expiry per day
// in steady state — and day d maps to physical bucket d mod nb. Routers
// in one bucket form an intrusive doubly-linked list over the next/prev
// arrays, so link and unlink are O(1) with no per-router allocation. The
// width never adapts: Tp and N are fixed per System, so the steady-state
// expiry density is too.
type bucketState struct {
	w    float64 // day width in seconds
	mask int     // len(head)-1; power-of-two bucket count >= 2N
	head []int32 // per bucket: first router id, -1 when empty
	next []int32 // per router: next id in its bucket list, -1 at tail
	prev []int32 // per router: previous id, -1 at head
	vb   []int64 // per router: cached day of its pending expiry
	cur  int64   // day holding the earliest pending expiry
	min  float64 // the earliest pending expiry itself (NextExpiry cache)
	cand []int32 // scratch: the current day's candidates, sorted
}

// bvbFor maps an expiry to its day. Monotone in the expiry — float
// division then floor — which is what makes day-ordered processing agree
// exactly with the heap's (expiry, id) order: e1 < e2 implies
// day(e1) <= day(e2), and equal expiries share a day.
func (b *bucketState) bvbFor(e float64) int64 {
	q := e / b.w
	if !(q < float64(bucketMaxVB)) {
		return bucketMaxVB
	}
	return int64(q)
}

// bucketInit sizes the engine for cfg.N routers. Bucket count 2N at day
// width Tp/N + Tc covers more than a full period plus a saturated busy
// window, so pending days can never alias within one calendar cycle.
func (s *System) bucketInit() {
	b := &s.bucket
	nb := 1
	for nb < 2*s.cfg.N {
		nb <<= 1
	}
	b.mask = nb - 1
	b.head = make([]int32, nb)
	b.next = make([]int32, s.cfg.N)
	b.prev = make([]int32, s.cfg.N)
	b.vb = make([]int64, s.cfg.N)
	b.cand = make([]int32, 0, s.cfg.N)
	b.w = s.cfg.Jitter.Mean()/float64(s.cfg.N) + s.cfg.Tc
}

// bucketRebuild relinks every router from the expiry array; called
// whenever the expiry set changes wholesale.
func (s *System) bucketRebuild() {
	b := &s.bucket
	for i := range b.head {
		b.head[i] = -1
	}
	b.min = math.Inf(1)
	for i := 0; i < s.cfg.N; i++ {
		s.bucketLink(int32(i))
		if s.expiry[i] < b.min {
			b.min = s.expiry[i]
		}
	}
	b.cur = b.bvbFor(b.min)
}

// bucketLink inserts a router at the head of its day's bucket list.
func (s *System) bucketLink(id int32) {
	b := &s.bucket
	vb := b.bvbFor(s.expiry[id])
	b.vb[id] = vb
	bi := int(vb) & b.mask
	h := b.head[bi]
	b.next[id] = h
	b.prev[id] = -1
	if h >= 0 {
		b.prev[h] = id
	}
	b.head[bi] = id
}

// bucketUnlink removes a router from its bucket list.
func (s *System) bucketUnlink(id int32) {
	b := &s.bucket
	n, p := b.next[id], b.prev[id]
	if p >= 0 {
		b.next[p] = n
	} else {
		b.head[int(b.vb[id])&b.mask] = n
	}
	if n >= 0 {
		b.prev[n] = p
	}
}

// bucketGather fills b.cand with the routers whose expiry falls on the
// given day, sorted by (expiry, id) — the model's firing order.
func (s *System) bucketGather(day int64) {
	b := &s.bucket
	b.cand = b.cand[:0]
	for id := b.head[int(day)&b.mask]; id >= 0; id = b.next[id] {
		if b.vb[id] == day {
			b.cand = append(b.cand, id)
		}
	}
	if len(b.cand) > 1 {
		s.sortCand(0, len(b.cand)-1)
	}
}

// sortCand is an in-place quicksort (median-of-three, insertion sort for
// short runs, recursion on the smaller half) over b.cand keyed by
// (expiry, id). sort.Slice would allocate its closure on every Step;
// this keeps the hot path at zero.
func (s *System) sortCand(lo, hi int) {
	c := s.bucket.cand
	for hi-lo > 11 {
		mid := int(uint(lo+hi) >> 1)
		if s.heapLess(c[mid], c[lo]) {
			c[mid], c[lo] = c[lo], c[mid]
		}
		if s.heapLess(c[hi], c[mid]) {
			c[hi], c[mid] = c[mid], c[hi]
			if s.heapLess(c[mid], c[lo]) {
				c[mid], c[lo] = c[lo], c[mid]
			}
		}
		pivot := c[mid]
		i, j := lo, hi
		for i <= j {
			for s.heapLess(c[i], pivot) {
				i++
			}
			for s.heapLess(pivot, c[j]) {
				j--
			}
			if i <= j {
				c[i], c[j] = c[j], c[i]
				i++
				j--
			}
		}
		if j-lo < hi-i {
			s.sortCand(lo, j)
			lo = i
		} else {
			s.sortCand(i, hi)
			hi = j
		}
	}
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && s.heapLess(c[j], c[j-1]); j-- {
			c[j], c[j-1] = c[j-1], c[j]
		}
	}
}

// stepBucket is the bucket engine's Step. It walks days forward from the
// cached minimum's day, gathering and sorting each day's candidates, and
// runs the identical admission loop — the same floating-point window
// expression, the same (expiry, id) order, the same RNG call order — as
// the heap engine, so the two replay bit-identically. Per round the day
// cursor advances about one period, i.e. about N days of O(1) checks for
// N member firings: O(k) amortized per cluster against the heap's
// O(k log N).
func (s *System) stepBucket() Event {
	b := &s.bucket
	day := b.cur
	s.bucketGather(day)
	ci := 0
	for len(b.cand) == 0 {
		day++
		s.bucketGather(day)
	}

	id := b.cand[ci]
	ci++
	s.bucketUnlink(id)
	t := s.expiry[id]
	s.members[0] = cluster.Member{ID: int(id), Expiry: t}
	k := 1
	frontier := math.Inf(1)
	for k < s.cfg.N {
		if ci == len(b.cand) {
			day++
			s.bucketGather(day)
			ci = 0
			continue
		}
		e := s.expiry[b.cand[ci]]
		if e < t+float64(k)*s.cfg.Tc || e == t {
			id = b.cand[ci]
			ci++
			s.bucketUnlink(id)
			s.members[k] = cluster.Member{ID: int(id), Expiry: e}
			k++
			continue
		}
		frontier = e
		break
	}

	end := t + float64(k)*s.cfg.Tc
	s.now = end
	ev := Event{
		Start:    t,
		End:      end,
		Members:  s.evMembers[:k],
		Expiries: s.evExpiries[:k],
	}
	rearmMin := math.Inf(1)
	for i := 0; i < k; i++ {
		m := s.members[i]
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
		s.bucketLink(int32(m.ID))
		if next < rearmMin {
			rearmMin = next
		}
	}
	ev.Next = frontier
	if rearmMin < ev.Next {
		ev.Next = rearmMin
	}
	b.min = ev.Next
	b.cur = b.bvbFor(ev.Next)
	s.steps++
	if s.cfg.Observer != nil {
		s.cfg.Observer.RoundCompleted(s.now, k)
	}
	for _, fn := range s.onEvent {
		fn(ev)
	}
	return ev
}
