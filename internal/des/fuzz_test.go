package des

import (
	"math"
	"slices"
	"testing"
)

// FuzzDESQueue replays a byte-coded program of schedule, cancel, step,
// RunUntil, RunBefore and reserve operations on both queue backends and
// on refQueue, a sorted slice that fires its head. Times are multiples
// of 0.5 a few steps from the clock and events take keys 0 (unkeyed), 2
// or 4, so most tie with others. Reservations take odd keys: like the
// packet simulator's, a reservation's (at, key) is never an event's.
// After every operation:
//   - both backends have fired the same events as the reference, in its
//     order;
//   - Cancel answered as the reference did, stale handles included;
//   - for every reservation, Fired(at, key) equals whether the reference,
//     which holds each reservation as an ordinary event, has fired it:
//     that is, fired every event up to (at, key).
//
// A reservation stands for an event queued when it is drawn, so the
// program only reserves instants that sort after everything fired so far
// (see Simulator.Fired for the one case that excludes). Horizons stay
// finite: Run would stop the clock at the last queued event, short of a
// reservation the reference would fire.
func FuzzDESQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 2048 {
			prog = prog[:2048]
		}
		sims := []*Simulator{NewBackend(BackendHeap), NewBackend(BackendCalendar)}
		fired := make([][]int, len(sims))
		handles := make([][]Event, len(sims))
		ref := &refQueue{firedAt: math.Inf(-1)}
		var ghosts []int // reference ids of the reservations

		pos := 0
		next := func() int {
			if pos >= len(prog) {
				return 0
			}
			pos++
			return int(prog[pos-1])
		}
		for pos < len(prog) {
			op := next() % 7
			switch op {
			case 0, 1: // schedule
				at := ref.now + Time(next()%8)/2
				key := 2 * uint64(next()%3)
				id := ref.push(at, key, false)
				for i, s := range sims {
					i := i
					handles[i] = append(handles[i], s.ScheduleKeyed(at, key, "fuzz", func() {
						fired[i] = append(fired[i], id)
					}))
				}
			case 2: // cancel, often a stale handle
				if len(handles[0]) == 0 {
					continue
				}
				h := next() % len(handles[0])
				want := ref.cancel(h)
				for i, s := range sims {
					if got := s.Cancel(handles[i][h]); got != want {
						t.Fatalf("op %d: %v Cancel(#%d) = %v, reference %v", pos, s.Backend(), h, got, want)
					}
				}
			case 3: // step
				want := ref.step()
				for _, s := range sims {
					if got := s.Step(); got != want {
						t.Fatalf("op %d: %v Step() = %v, reference %v", pos, s.Backend(), got, want)
					}
				}
			case 4: // RunUntil
				h := ref.now + Time(next()%8)/2
				ref.runUntil(h)
				for _, s := range sims {
					s.RunUntil(h)
				}
			case 5: // RunBefore
				h := ref.now + Time(next()%8)/2
				ref.runBefore(h)
				for _, s := range sims {
					s.RunBefore(h)
				}
			case 6: // reserve
				at := ref.now + Time(next()%8)/2
				key := 2*uint64(next()%3) + 1
				if at == ref.firedAt && key <= ref.firedKey {
					continue // sorts at or before the fired frontier
				}
				ghosts = append(ghosts, ref.push(at, key, true))
			}
			for i, s := range sims {
				if s.Now() != ref.now {
					t.Fatalf("op %d: %v clock %v, reference %v", pos, s.Backend(), s.Now(), ref.now)
				}
				if !slices.Equal(fired[i], ref.fired) {
					t.Fatalf("op %d: %v fired %v, reference %v", pos, s.Backend(), fired[i], ref.fired)
				}
				for _, g := range ghosts {
					e := ref.events[g]
					if got := s.Fired(e.at, e.key); got != e.done {
						t.Fatalf("op %d: %v Fired(%v, %d) = %v, reference %v", pos, s.Backend(), e.at, e.key, got, e.done)
					}
				}
			}
		}
	})
}

// refEvent is one event the reference has held. ghost marks a
// reservation: it fires in order like any event but runs nothing.
type refEvent struct {
	at     Time
	key    uint64
	ghost  bool
	queued bool
	done   bool
}

// refQueue is the reference: every event it ever held, indexed by id in
// scheduling order, and the pending ids kept sorted by (at, key, id).
type refQueue struct {
	events  []refEvent
	handles []int // real (non-ghost) ids in scheduling order
	pending []int
	now     Time
	fired   []int // real ids in firing order
	// firedAt/firedKey: the greatest (at, key) fired, (now, max) after
	// runUntil; only reservations sorting after it are drawn.
	firedAt  Time
	firedKey uint64
}

func (r *refQueue) less(a, b int) bool {
	ea, eb := r.events[a], r.events[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	if ea.key != eb.key {
		return ea.key < eb.key
	}
	return a < b
}

func (r *refQueue) push(at Time, key uint64, ghost bool) int {
	id := len(r.events)
	r.events = append(r.events, refEvent{at: at, key: key, ghost: ghost, queued: true})
	if !ghost {
		r.handles = append(r.handles, id)
	}
	i, _ := slices.BinarySearchFunc(r.pending, id, func(p, id int) int {
		if r.less(p, id) {
			return -1
		}
		return 1
	})
	r.pending = slices.Insert(r.pending, i, id)
	return id
}

// cancel removes the h-th scheduled event, reporting whether it was
// still pending.
func (r *refQueue) cancel(h int) bool {
	id := r.handles[h]
	if !r.events[id].queued {
		return false
	}
	r.events[id].queued = false
	r.pending = slices.DeleteFunc(r.pending, func(p int) bool { return p == id })
	return true
}

// fireHead pops and fires the head.
func (r *refQueue) fireHead() {
	id := r.pending[0]
	r.pending = r.pending[1:]
	e := &r.events[id]
	e.queued, e.done = false, true
	r.now = e.at
	if e.ghost {
		return
	}
	if e.at > r.firedAt || e.key > r.firedKey {
		r.firedAt, r.firedKey = e.at, e.key
	}
	r.fired = append(r.fired, id)
}

// step fires reservations up to and including the next real event, as
// Step's one event stands for them all; it reports whether one fired.
func (r *refQueue) step() bool {
	for i, id := range r.pending {
		if !r.events[id].ghost {
			for range i + 1 {
				r.fireHead()
			}
			return true
		}
	}
	return false
}

func (r *refQueue) runUntil(h Time) {
	for len(r.pending) > 0 && r.events[r.pending[0]].at <= h {
		r.fireHead()
	}
	r.now = max(r.now, h)
	r.firedAt, r.firedKey = r.now, math.MaxUint64
}

func (r *refQueue) runBefore(h Time) {
	for len(r.pending) > 0 && r.events[r.pending[0]].at < h {
		r.fireHead()
	}
	r.now = max(r.now, h)
}
