package periodic

import (
	"math"

	"routesync/internal/cluster"
)

// bucketMaxDay caps day indices so arithmetic on far-future expiries
// cannot overflow int64.
const bucketMaxDay = int64(1) << 62

// bucketState is the structure-of-arrays engine state. Time is cut into
// fixed-width "days" of w = Tp/N + Tc seconds — about one expiry per day
// in steady state — and day d maps to physical bucket d mod nb. Routers
// in one bucket form an intrusive singly-linked list over the next
// array: a re-armed timer is pushed at its bucket's head, and
// bucketGather detaches a day's members whole as it walks, so a firing
// costs one list write per router and no allocation. The width never
// adapts: Tp and N are fixed per System, so the steady-state expiry
// density is too.
type bucketState struct {
	invW float64 // 1/w for day width w in seconds
	mask int     // len(head)-1; power-of-two bucket count >= 2N
	head []int32 // per bucket: first router id, -1 when empty
	next []int32 // per router: next id in its bucket list, -1 at tail
	cur  int64   // day holding the earliest pending expiry
	min  float64 // the earliest pending expiry itself (NextExpiry cache)
	// cand holds the routers of day cday, detached from their bucket,
	// with their expiries inline, sorted by (expiry, id). cand[ci:] are
	// the ones not yet admitted: after a Step they are the rest of the
	// frontier's day, kept so the next Step starts from them instead of
	// gathering and sorting that day again.
	cand []cluster.Member
	ci   int
	cday int64
}

// dayOf maps an expiry to its day: multiplication by 1/w, then int64
// truncation toward zero, so day 0 spans (−w, w). Both steps are
// monotone in the expiry, which is what makes day-ordered processing
// agree exactly with the model's (expiry, id) firing order: e1 < e2
// implies day(e1) <= day(e2), and equal expiries share a day.
func (b *bucketState) dayOf(e float64) int64 {
	q := e * b.invW
	if !(q < float64(bucketMaxDay)) {
		return bucketMaxDay
	}
	return int64(q)
}

// bucketInit sizes the engine for cfg.N routers. Bucket count 2N at day
// width Tp/N + Tc spans more than two mean periods, so two pending days
// share a bucket only under jitter close to Tp itself; bucketGather
// leaves the other day's routers linked.
func (s *System) bucketInit() {
	b := &s.bucket
	nb := 1
	for nb < 2*s.cfg.N {
		nb <<= 1
	}
	b.mask = nb - 1
	b.head = make([]int32, nb)
	b.next = make([]int32, s.cfg.N)
	b.cand = make([]cluster.Member, 0, s.cfg.N)
	b.invW = 1 / (s.cfg.Jitter.Mean()/float64(s.cfg.N) + s.cfg.Tc)
}

// bucketRebuild relinks every router from the expiry array; called
// whenever the expiry set changes wholesale. A kept day is dropped: its
// routers are relinked with the rest.
func (s *System) bucketRebuild() {
	b := &s.bucket
	for i := range b.head {
		b.head[i] = -1
	}
	b.cand, b.ci = b.cand[:0], 0
	b.min = math.Inf(1)
	for i := 0; i < s.cfg.N; i++ {
		s.bucketLink(int32(i))
		if s.expiry[i] < b.min {
			b.min = s.expiry[i]
		}
	}
	b.cur = b.dayOf(b.min)
}

// bucketLink pushes a router at the head of its day's bucket list.
func (s *System) bucketLink(id int32) {
	b := &s.bucket
	bi := int(b.dayOf(s.expiry[id])) & b.mask
	b.next[id] = b.head[bi]
	b.head[bi] = id
}

// radixMinDay is the candidate count above which bucketGather radix-sorts
// a day instead of quicksorting it. Synchronized runs at N = 100–1000
// were no slower with 64 than with 512 (EXPERIMENTS.md, "Candidate
// sort"), and 64 keeps the radix path within FuzzPeriodicEngines' N.
const radixMinDay = 64

// bucketGather detaches the routers whose expiry falls on the given day
// from their bucket list into b.cand, sorted by (expiry, id) — the
// model's firing order. Entries of other days that alias onto the same
// bucket stay linked, in their order.
func (s *System) bucketGather(day int64) {
	b := &s.bucket
	b.cand, b.ci, b.cday = b.cand[:0], 0, day
	tail := &b.head[int(day)&b.mask]
	for id := *tail; id >= 0; id = b.next[id] {
		e := s.expiry[id]
		if b.dayOf(e) == day {
			b.cand = append(b.cand, cluster.Member{ID: int(id), Expiry: e})
		} else {
			*tail = id
			tail = &b.next[id]
		}
	}
	*tail = -1
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
// bytes of radixKey, using tmp (len >= len(c)) as scratch. A first pass
// finds the bytes that vary; a byte every key shares — most high bytes
// within one day — gets no histogram and no pass. The passes are stable
// but the gather order is not by id, so a last scan sorts each run of
// equal expiries by id. Round 0 of a synchronized start is a single
// N-way tie: no byte varies and that scan does the work.
func radixCand(c, tmp []cluster.Member) {
	k0 := radixKey(c[0].Expiry)
	var diff uint64
	for _, m := range c {
		diff |= radixKey(m.Expiry) ^ k0
	}
	var shifts [8]uint
	nd := 0
	for sh := uint(0); sh < 64; sh += 8 {
		if byte(diff>>sh) != 0 {
			shifts[nd] = sh
			nd++
		}
	}
	var counts [8][256]int
	for _, m := range c {
		k := radixKey(m.Expiry)
		for d, sh := range shifts[:nd] {
			counts[d][byte(k>>sh)]++
		}
	}
	src, dst := c, tmp[:len(c)]
	for d, sh := range shifts[:nd] {
		cnt := &counts[d]
		off := 0
		for i, n := range cnt {
			cnt[i] = off
			off += n
		}
		for _, m := range src {
			j := byte(radixKey(m.Expiry) >> sh)
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
