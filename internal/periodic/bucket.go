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
	// cand is scratch: the current day's candidates with their expiries
	// inline, sorted by (expiry, id).
	cand []cluster.Member
}

// bvbFor maps an expiry to its day: float division, then int64
// truncation toward zero, so day 0 spans (−w, w). Truncation is still
// monotone in the expiry, which is what makes day-ordered processing
// agree exactly with the heap's (expiry, id) order: e1 < e2 implies
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
	b.cand = make([]cluster.Member, 0, s.cfg.N)
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

// radixMinDay is the candidate count above which bucketGather radix-sorts
// a day instead of quicksorting it. Synchronized runs at N = 100–1000
// were no slower with 64 than with 512 (EXPERIMENTS.md, "Candidate
// sort"), and 64 keeps the radix path within FuzzPeriodicEngines' N.
const radixMinDay = 64

// bucketGather fills b.cand with the routers whose expiry falls on the
// given day, sorted by (expiry, id) — the model's firing order.
func (s *System) bucketGather(day int64) {
	b := &s.bucket
	b.cand = b.cand[:0]
	for id := b.head[int(day)&b.mask]; id >= 0; id = b.next[id] {
		if b.vb[id] == day {
			b.cand = append(b.cand, cluster.Member{ID: int(id), Expiry: s.expiry[id]})
		}
	}
	if n := len(b.cand); n > radixMinDay {
		radixCand(b.cand, s.scratch())
	} else if n > 1 {
		sortCand(b.cand)
	}
}

// radixKey maps an expiry to a uint64 whose unsigned order is the
// expiry's < order: negatives have every bit flipped, the rest get the
// sign bit set, and −0 is folded onto +0, which < treats as equal.
// Expiries are never NaN: jitter draws are finite, and the tests'
// SetExpiries rejects non-finite values.
func radixKey(e float64) uint64 {
	if e == 0 {
		return 1 << 63
	}
	k := math.Float64bits(e)
	if k>>63 != 0 {
		return ^k
	}
	return k | 1<<63
}

// radixCand sorts c by (expiry, id) with an LSD radix sort over the
// eight bytes of radixKey, using tmp (len >= len(c)) as scratch. One
// counting pass fills every digit's histogram; a digit that every key
// shares — most high bytes within one day — costs no pass. The passes
// are stable but the gather order is not by id, so a last scan sorts
// each run of equal expiries by id. Round 0 of a synchronized start is
// a single N-way tie: every digit is skipped and that scan does the work.
func radixCand(c, tmp []cluster.Member) {
	var counts [8][256]int
	k0 := radixKey(c[0].Expiry)
	var diff uint64
	for _, m := range c {
		k := radixKey(m.Expiry)
		diff |= k ^ k0
		for d := 0; d < 8; d++ {
			counts[d][byte(k>>(8*d))]++
		}
	}
	src, dst := c, tmp[:len(c)]
	for d := 0; d < 8; d++ {
		if byte(diff>>(8*d)) == 0 {
			continue
		}
		cnt := &counts[d]
		off := 0
		for i, n := range cnt {
			cnt[i] = off
			off += n
		}
		for _, m := range src {
			j := byte(radixKey(m.Expiry) >> (8 * d))
			dst[cnt[j]] = m
			cnt[j]++
		}
		src, dst = dst, src
	}
	if &src[0] != &c[0] {
		copy(c, src)
	}
	for i := 0; i < len(c); {
		j := i + 1
		for j < len(c) && c[j].Expiry == c[i].Expiry {
			j++
		}
		if j-i > 1 {
			sortCand(c[i:j])
		}
		i = j
	}
}

// candLess is the model's firing order on inline keys: earlier expiry,
// lower id on ties — heapLess without the expiry lookups.
func candLess(a, b cluster.Member) bool {
	if a.Expiry != b.Expiry {
		return a.Expiry < b.Expiry
	}
	return a.ID < b.ID
}

// sortCand is an in-place quicksort (median-of-three, insertion sort for
// short runs, recursion on the smaller half) over c keyed by
// (expiry, id). It allocates nothing, and slices.SortFunc on the same
// keys measured slower (EXPERIMENTS.md, "Candidate sort").
func sortCand(c []cluster.Member) {
	lo, hi := 0, len(c)-1
	for hi-lo > 11 {
		mid := int(uint(lo+hi) >> 1)
		if candLess(c[mid], c[lo]) {
			c[mid], c[lo] = c[lo], c[mid]
		}
		if candLess(c[hi], c[mid]) {
			c[hi], c[mid] = c[mid], c[hi]
			if candLess(c[mid], c[lo]) {
				c[mid], c[lo] = c[lo], c[mid]
			}
		}
		pivot := c[mid]
		i, j := lo, hi
		for i <= j {
			for candLess(c[i], pivot) {
				i++
			}
			for candLess(pivot, c[j]) {
				j--
			}
			if i <= j {
				c[i], c[j] = c[j], c[i]
				i++
				j--
			}
		}
		if j-lo < hi-i {
			sortCand(c[lo : j+1])
			lo = i
		} else {
			sortCand(c[i : hi+1])
			hi = j
		}
	}
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && candLess(c[j], c[j-1]); j-- {
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
// N member firings, plus the sort of each day's candidates: O(k) per
// cluster for days of a few routers, O(k) radix passes for crowded days,
// and O(k log k) for runs of exactly equal expiries, against the heap's
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

	members, expiries := s.evMembers, s.evExpiries
	c := b.cand[ci]
	ci++
	s.bucketUnlink(int32(c.ID))
	t := c.Expiry
	members[0], expiries[0] = c.ID, t
	k := 1
	frontier := math.Inf(1)
	for k < s.cfg.N {
		if ci == len(b.cand) {
			day++
			s.bucketGather(day)
			ci = 0
			continue
		}
		c = b.cand[ci]
		if c.Expiry < t+float64(k)*s.cfg.Tc || c.Expiry == t {
			ci++
			s.bucketUnlink(int32(c.ID))
			members[k], expiries[k] = c.ID, c.Expiry
			k++
			continue
		}
		frontier = c.Expiry
		break
	}

	end := t + float64(k)*s.cfg.Tc
	s.now = end
	ev := Event{
		Start:    t,
		End:      end,
		Members:  members[:k],
		Expiries: expiries[:k],
	}
	rearmMin := math.Inf(1)
	for i, id := range ev.Members {
		delay := s.cfg.Jitter.Delay(s.r, id)
		var next float64
		switch s.cfg.Reset {
		case ResetOnExpiry:
			next = ev.Expiries[i] + delay
			if next < end {
				next = end
			}
		default: // ResetAfterProcessing, the paper's rule
			next = end + delay
		}
		s.expiry[id] = next
		s.bucketLink(int32(id))
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
	if s.cfg.Observer != nil {
		s.cfg.Observer.RoundCompleted(s.now, k)
	}
	for _, fn := range s.onEvent {
		fn(ev)
	}
	return ev
}
