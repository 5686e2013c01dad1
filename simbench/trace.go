package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"os"
	"sync/atomic"
	"time"

	"routesync/internal/des"
)

// hist is a log-linear histogram of non-negative integer samples (ns or
// counts): values below 64 get exact buckets, larger ones 64 buckets per
// power of two, so a quantile is exact to about 1.6%. Per-event and
// per-step timings go here rather than into spans, which keeps a traced
// run's memory independent of its event count.
type hist struct {
	counts [64 * 60]uint64
	n      uint64
}

func histBucket(v uint64) int {
	if v < 64 {
		return int(v)
	}
	e := bits.Len64(v) - 7 // v>>e lies in [64, 128)
	return (e+1)*64 + int(v>>e) - 64
}

// histLow is the smallest value that lands in bucket b.
func histLow(b int) uint64 {
	if b < 64 {
		return uint64(b)
	}
	e := b/64 - 1
	return uint64(64+b%64) << e
}

func (h *hist) add(v uint64) {
	h.counts[histBucket(v)]++
	h.n++
}

// quantile returns the q-quantile's bucket midpoint (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			lo := histLow(b)
			return (float64(lo) + float64(histLow(b+1))) / 2
		}
	}
	return float64(histLow(len(h.counts) - 1))
}

// span is one traced interval: name, start and end in ns since the
// trace began, and the index of the span that caused it (-1: a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// spans keeps a traced run's spans in memory until the run ends. It is
// used from one goroutine only: the benchmark's, which is also the
// partition coordinator's.
type spans struct {
	origin time.Time
	list   []span
}

func newSpans() *spans { return &spans{origin: time.Now()} }

func (s *spans) now() int64 { return int64(time.Since(s.origin)) }

// begin opens a span and returns its index for end and for children.
func (s *spans) begin(name string, parent int) int {
	s.list = append(s.list, span{Name: name, Start: s.now(), End: -1, Parent: parent})
	return len(s.list) - 1
}

func (s *spans) end(i int) { s.list[i].End = s.now() }

// add records an already-timed span.
func (s *spans) add(name string, start, end int64, parent int) {
	s.list = append(s.list, span{Name: name, Start: start, End: end, Parent: parent})
}

// write stores the spans as a JSON array.
func (s *spans) write(path string) error {
	b, err := json.Marshal(s.list)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// tracer is the des.Observer and netsim.SyncObserver a traced K=2 run
// installs with Network.SetObserver. The des callbacks arrive
// concurrently from every partition goroutine, so they only bump
// atomics; SyncWindow arrives from the coordinator between windows, the
// goroutine that also owns the spans.
type tracer struct {
	scheduled, fired, cancelled atomic.Uint64
	peakDepth                   atomic.Int64

	sp     *spans
	parent int   // span the coordinator rounds nest under
	last   int64 // end of the previous coordinator round
	rounds hist  // wall time between consecutive SyncWindow callbacks, ns
}

func (t *tracer) EventScheduled(at float64, depth int) {
	t.scheduled.Add(1)
	for d := int64(depth); ; {
		cur := t.peakDepth.Load()
		if d <= cur || t.peakDepth.CompareAndSwap(cur, d) {
			break
		}
	}
}

func (t *tracer) EventFired(at float64, depth int) { t.fired.Add(1) }

func (t *tracer) EventCancelled(at float64, depth int) { t.cancelled.Add(1) }

// SyncWindow implements netsim.SyncObserver: each call closes one
// coordinator round, timed from the previous call.
func (t *tracer) SyncWindow(gvt, lag float64, rollbacks int, maxDepth float64) {
	now := t.sp.now()
	if t.last > 0 {
		t.rounds.add(uint64(now - t.last))
		t.sp.add("netsim.sync.round", t.last, now, t.parent)
	}
	t.last = now
}

// Operation kinds of a recorded event sequence.
const (
	opSchedule uint8 = iota
	opFire
	opCancel
)

// recorder is a des.Observer that records a K=1 run's schedule, fire and
// cancel sequence (one simulator, so one goroutine) for replay on a bare
// simulator. It keeps at most max operations: a prefix of the sequence
// starting from an empty queue is itself a valid sequence.
type recorder struct {
	kinds []uint8
	ats   []float64
	max   int
}

func (r *recorder) op(kind uint8, at float64) {
	if len(r.kinds) < r.max {
		r.kinds = append(r.kinds, kind)
		r.ats = append(r.ats, at)
	}
}

func (r *recorder) EventScheduled(at float64, depth int) { r.op(opSchedule, at) }
func (r *recorder) EventFired(at float64, depth int)     { r.op(opFire, at) }
func (r *recorder) EventCancelled(at float64, depth int) { r.op(opCancel, at) }

// replayProgram is a recorded sequence resolved for replay. The observer
// reports only times, so each cancel is bound here to one pending
// schedule with the same time; fires take the earliest-scheduled pending
// event of their time, which is what an unkeyed replay pops first. The
// replayed queue therefore holds the same multiset of times as the
// recorded one after every operation, and every Step fires at the
// recorded time.
type replayProgram struct {
	kinds []uint8
	ats   []float64
	// slot[i] is, for schedule i, the handle slot it is stored in when a
	// later cancel targets it (-1 otherwise), and for cancel i the slot
	// of the handle it cancels.
	slot   []int32
	slots  int
	fires  int
	cancel int
}

func (r *recorder) program() *replayProgram {
	p := &replayProgram{kinds: r.kinds, ats: r.ats, slot: make([]int32, len(r.kinds))}
	pending := make(map[float64][]int) // time → schedule op indices, in schedule order
	for i, k := range r.kinds {
		at := r.ats[i]
		p.slot[i] = -1
		switch k {
		case opSchedule:
			pending[at] = append(pending[at], i)
		case opFire:
			q := pending[at]
			if len(q) == 0 {
				panic(fmt.Sprintf("simbench: recorded fire at %v with no pending event", at))
			}
			pending[at] = q[1:]
			p.fires++
		case opCancel:
			q := pending[at]
			if len(q) == 0 {
				panic(fmt.Sprintf("simbench: recorded cancel at %v with no pending event", at))
			}
			// The latest-scheduled one, so fires (earliest-first) and
			// cancels never contend for the same event.
			victim := q[len(q)-1]
			pending[at] = q[:len(q)-1]
			p.slot[victim] = int32(p.slots)
			p.slot[i] = int32(p.slots)
			p.slots++
			p.cancel++
		}
	}
	return p
}

func noop() {}

// replay runs the program on a bare simulator of the given backend with
// no-op callbacks and returns the wall time per fired event in ns. obs,
// when non-nil, observes the replay simulator (the tests use it).
func (p *replayProgram) replay(b des.Backend, obs des.Observer) float64 {
	sim := des.NewBackend(b)
	if obs != nil {
		sim.SetObserver(obs)
	}
	handles := make([]des.Event, p.slots)
	start := time.Now()
	for i, k := range p.kinds {
		switch k {
		case opSchedule:
			ev := sim.Schedule(p.ats[i], "replay", noop)
			if s := p.slot[i]; s >= 0 {
				handles[s] = ev
			}
		case opFire:
			sim.Step()
		case opCancel:
			sim.Cancel(handles[p.slot[i]])
		}
	}
	el := time.Since(start)
	if p.fires == 0 {
		return 0
	}
	return float64(el.Nanoseconds()) / float64(p.fires)
}
