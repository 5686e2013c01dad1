// Package des provides a deterministic discrete-event simulation kernel:
// a simulation clock, an event queue with stable FIFO tie-breaking, and
// cancellable timers. Two queue backends are available — an indexed
// binary heap (the default and reference) and a Brown-style calendar
// queue for deep queues — selected per Simulator or via the
// ROUTESYNC_DES_BACKEND environment variable; see Backend.
//
// Every simulator in this repository — the Periodic Messages model in
// internal/periodic and the packet-level network simulator in
// internal/netsim — runs on this kernel. Determinism matters: given the
// same seed and the same event program, a simulation must replay exactly,
// so events scheduled for the same instant fire in scheduling order —
// or, for events carrying a logical priority key (ScheduleKeyed), in key
// order, which makes the schedule reproducible even across differently
// partitioned parallel runs. RunBefore exposes the half-open execution
// window that conservative parallel simulation is built on.
//
// The kernel also keeps a fired frontier: the greatest key fired at the
// clock's instant, raised to the maximum key when RunUntil returns, since
// every event up to its horizon has fired by then. Fired answers
// from it whether an event at a given (time, key) would have fired by
// now had it been queued. That lets a caller reserve an event instead of
// scheduling it: draw its time and key, keep them, and queue the event
// only if something will be waiting for it. Until then Fired tells the
// caller whether the reserved instant has passed. The packet simulator
// reserves its transmitters' tx-done events and its path-vector agents'
// MRAI expiries this way (netsim.Reservation); see Fired for the one case
// a reservation cannot stand in for a queued event.
//
// The kernel is steady-state allocation-free: events live in a pooled slot
// array owned by the Simulator and are recycled through a free list, so a
// long simulation allocates only while the pool grows to the peak
// concurrent event count. Event handles are generation-counted values —
// a handle to an event that has fired or been cancelled is recognized as
// stale (Cancel is a no-op) even if its slot has been reused, so callers
// may retain handles without lifetime discipline.
package des

import (
	"fmt"
	"math"
)

// Time is simulation time in seconds. Using a named float64 keeps call
// sites honest about units without the overhead of a struct.
type Time = float64

// Event is a generation-counted handle to a scheduled callback. It is a
// small value, cheap to copy and store. The zero Event is inert:
// cancelling it is a no-op.
type Event struct {
	sim  *Simulator
	slot int32
	gen  uint32
}

// event is the pooled storage behind an Event handle.
type event struct {
	at     Time
	key    uint64 // logical priority at equal times; 0 for unkeyed events
	seq    uint64 // insertion order; breaks remaining ties deterministically
	gen    uint32 // bumped on release; stale handles mismatch
	index  int32  // heap index or position within bucket, -1 when not queued
	bucket int32  // calendar backend: physical bucket holding the event
	fn     func()
}

// live reports whether the handle still refers to a pending event.
func (e Event) live() (*event, bool) {
	if e.sim == nil || int(e.slot) >= len(e.sim.pool) {
		return nil, false
	}
	ev := &e.sim.pool[e.slot]
	if ev.gen != e.gen || ev.index < 0 {
		return nil, false
	}
	return ev, true
}

// Observer receives kernel lifecycle notifications. All methods are called
// synchronously from within the simulation thread; implementations must not
// call back into the Simulator. depth is the queue length after the
// operation. A nil observer (the default) costs a single predictable branch
// per operation and zero allocations; implementations that only bump
// counters keep the hot paths allocation-free, since the arguments are
// scalars and the interface call does not escape them. Counting itself
// needs no observer: Counts reads the totals from the Simulator.
type Observer interface {
	// EventScheduled fires after Schedule/After queues an event.
	EventScheduled(at Time, depth int)
	// EventFired fires when Step dequeues an event, before its callback runs.
	EventFired(at Time, depth int)
	// EventCancelled fires when Cancel removes a pending event.
	EventCancelled(at Time, depth int)
}

// Simulator owns a clock and an event queue. It is not safe for concurrent
// use; a simulation is a single logical thread of control.
type Simulator struct {
	now       Time
	pool      []event
	free      []int32  // recycled pool slots
	queue     []int32  // BackendHeap: binary min-heap of pool slots
	cal       calendar // BackendCalendar state
	backend   Backend
	seq       uint64
	processed uint64
	running   bool
	obs       Observer
	// firedKey is the fired frontier: the greatest key Step has fired at
	// the clock's instant, MaxUint64 once RunUntil returns, and 0 while
	// nothing has fired at it (RunBefore moved the clock past the last
	// event).
	firedKey uint64
}

// New returns a Simulator with the clock at zero, using DefaultBackend.
func New() *Simulator {
	return NewBackend(DefaultBackend())
}

// NewBackend returns a Simulator with the clock at zero using the given
// event-queue backend.
func NewBackend(b Backend) *Simulator {
	return &Simulator{backend: b}
}

// Backend returns the event-queue backend this Simulator runs on.
func (s *Simulator) Backend() Backend { return s.backend }

// SetObserver installs obs (nil to remove). Observation is off by default.
func (s *Simulator) SetObserver(obs Observer) { s.obs = obs }

// Now returns the current simulation time.
func (s *Simulator) Now() Time { return s.now }

// Pending returns the number of queued events.
func (s *Simulator) Pending() int {
	if s.backend == BackendCalendar {
		return s.cal.size
	}
	return len(s.queue)
}

// qPush queues a pooled slot on the active backend.
func (s *Simulator) qPush(slot int32) {
	if s.backend == BackendCalendar {
		s.calPush(slot)
		return
	}
	s.queue = append(s.queue, slot)
	s.siftUp(len(s.queue) - 1)
}

// qPeek returns the slot of the earliest pending event, -1 when empty.
func (s *Simulator) qPeek() int32 {
	if s.backend == BackendCalendar {
		return s.calPeek()
	}
	if len(s.queue) == 0 {
		return -1
	}
	return s.queue[0]
}

// qRemove unqueues a pending slot (it stays pooled; release is separate).
func (s *Simulator) qRemove(slot int32) {
	if s.backend == BackendCalendar {
		s.calRemove(slot)
		return
	}
	s.removeAt(int(s.pool[slot].index))
}

// Counts is the work a Simulator has done so far.
type Counts struct {
	Scheduled, Fired, Cancelled uint64
	// PeakDepth is the most events that were ever pending at once.
	PeakDepth int
}

// Add sums o into c; the peak depth is the larger of the two.
func (c *Counts) Add(o Counts) {
	c.Scheduled += o.Scheduled
	c.Fired += o.Fired
	c.Cancelled += o.Cancelled
	c.PeakDepth = max(c.PeakDepth, o.PeakDepth)
}

// Counts reads the Simulator's work from state it keeps anyway: every
// schedule draws one seq, every fired event bumps processed, and what is
// neither fired nor pending was cancelled. The pool grows only when every
// slot holds a pending event, since Step releases a slot before its
// callback runs, so its length is the peak depth.
func (s *Simulator) Counts() Counts {
	return Counts{
		Scheduled: s.seq,
		Fired:     s.processed,
		Cancelled: s.seq - s.processed - uint64(s.Pending()),
		PeakDepth: len(s.pool),
	}
}

// less orders slots by (time, key, insertion order) — the contract shared
// by both queue backends. Unkeyed events carry key 0, so programs that
// never call ScheduleKeyed get pure (time, insertion order) FIFO exactly
// as before. Keyed events order by their logical key at equal times,
// which is what makes an ordering reproducible across differently-
// partitioned simulations: the key is derived from the event's *origin*
// (who scheduled it), not from when it happened to be inserted into this
// particular queue.
func (s *Simulator) less(a, b int32) bool {
	ea, eb := &s.pool[a], &s.pool[b]
	if ea.at != eb.at {
		return ea.at < eb.at
	}
	if ea.key != eb.key {
		return ea.key < eb.key
	}
	return ea.seq < eb.seq
}

func (s *Simulator) siftUp(i int) {
	q := s.queue
	slot := q[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(slot, q[parent]) {
			break
		}
		q[i] = q[parent]
		s.pool[q[i]].index = int32(i)
		i = parent
	}
	q[i] = slot
	s.pool[slot].index = int32(i)
}

func (s *Simulator) siftDown(i int) {
	q := s.queue
	n := len(q)
	slot := q[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && s.less(q[r], q[child]) {
			child = r
		}
		if !s.less(q[child], slot) {
			break
		}
		q[i] = q[child]
		s.pool[q[i]].index = int32(i)
		i = child
	}
	q[i] = slot
	s.pool[slot].index = int32(i)
}

// removeAt deletes the heap entry at index i, restoring heap order.
func (s *Simulator) removeAt(i int) {
	n := len(s.queue) - 1
	last := s.queue[n]
	s.queue = s.queue[:n]
	if i == n {
		return
	}
	s.queue[i] = last
	s.pool[last].index = int32(i)
	if i > 0 && s.less(last, s.queue[(i-1)/2]) {
		s.siftUp(i)
	} else {
		s.siftDown(i)
	}
}

// release returns a slot to the free list, invalidating outstanding
// handles and dropping the callback reference for the garbage collector.
func (s *Simulator) release(slot int32) {
	ev := &s.pool[slot]
	ev.gen++
	ev.index = -1
	ev.fn = nil
	s.free = append(s.free, slot)
}

// Schedule queues fn to run at absolute time at. It panics if at precedes
// the current clock (scheduling into the past is always a bug) or is NaN.
// The label is not stored; it names the event in the past-time panic.
func (s *Simulator) Schedule(at Time, label string, fn func()) Event {
	return s.ScheduleKeyed(at, 0, label, fn)
}

// ScheduleKeyed queues fn to run at absolute time at with a logical
// priority key: at equal timestamps events fire in ascending key order
// (ties on equal keys fall back to insertion order). Callers that need an
// event ordering independent of *when* events were inserted — the
// partitioned network simulator, where the same packet arrival may be
// queued at transmission time (sequential run) or at a window barrier
// (partitioned run) — derive the key from the event's origin and a
// per-origin sequence number, making the fire order a pure function of
// the simulated system. Keyed and unkeyed events may share a queue;
// unkeyed events carry key 0 and therefore sort first at their timestamp.
func (s *Simulator) ScheduleKeyed(at Time, key uint64, label string, fn func()) Event {
	if math.IsNaN(at) {
		panic("des: Schedule with NaN time")
	}
	if at < s.now {
		panic(fmt.Sprintf("des: Schedule(%q, key %#x) at %v before now %v", label, key, at, s.now))
	}
	if fn == nil {
		panic("des: Schedule with nil fn")
	}
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.pool = append(s.pool, event{index: -1})
		slot = int32(len(s.pool) - 1)
		if cap(s.free) < cap(s.pool) {
			// The free list is empty here. Size it with the pool, so that
			// release never allocates once the pool has stopped growing.
			s.free = make([]int32, 0, cap(s.pool))
		}
	}
	ev := &s.pool[slot]
	ev.at = at
	ev.key = key
	ev.seq = s.seq
	ev.fn = fn
	s.seq++
	s.qPush(slot)
	if s.obs != nil {
		s.obs.EventScheduled(at, s.Pending())
	}
	return Event{sim: s, slot: slot, gen: ev.gen}
}

// After queues fn to run delay seconds from now. Negative delays panic.
func (s *Simulator) After(delay Time, label string, fn func()) Event {
	return s.Schedule(s.now+delay, label, fn)
}

// NextAt returns the timestamp of the earliest pending event, or +Inf when
// the queue is empty. The partitioned runtime uses this to pick the next
// synchronization window without executing anything.
func (s *Simulator) NextAt() Time {
	slot := s.qPeek()
	if slot < 0 {
		return math.Inf(1)
	}
	return s.pool[slot].at
}

// Cancel removes a pending event from the queue. Cancelling an event that
// already fired or was already cancelled is a no-op and returns false.
func (s *Simulator) Cancel(e Event) bool {
	ev, ok := e.live()
	if !ok || e.sim != s {
		return false
	}
	at := ev.at
	s.qRemove(e.slot)
	s.release(e.slot)
	if s.obs != nil {
		s.obs.EventCancelled(at, s.Pending())
	}
	return true
}

// Step executes the single earliest pending event, advancing the clock to
// its timestamp. It returns false when the queue is empty.
func (s *Simulator) Step() bool {
	slot := s.qPeek()
	if slot < 0 {
		return false
	}
	s.qRemove(slot)
	ev := &s.pool[slot]
	// Only a same-instant event with a lower key leaves the frontier
	// alone.
	if ev.at != s.now || ev.key > s.firedKey {
		s.firedKey = ev.key
	}
	s.now = ev.at
	fn := ev.fn
	s.release(slot)
	s.processed++
	if s.obs != nil {
		s.obs.EventFired(s.now, s.Pending())
	}
	fn()
	return true
}

// Run executes events until the queue drains. It returns the number of
// events processed by this call.
func (s *Simulator) Run() uint64 {
	return s.RunUntil(math.Inf(1))
}

// RunUntil executes events with timestamps <= horizon (or until the queue
// drains) and then advances the clock to min(horizon, next event time).
// It returns the number of events processed by this call.
func (s *Simulator) RunUntil(horizon Time) uint64 {
	if s.running {
		panic("des: RunUntil re-entered from within an event")
	}
	s.running = true
	defer func() { s.running = false }()

	var n uint64
	for {
		slot := s.qPeek()
		if slot < 0 || s.pool[slot].at > horizon {
			break
		}
		s.Step()
		n++
	}
	if !math.IsInf(horizon, 1) && s.now < horizon {
		// Advance the clock to the horizon so repeated RunUntil calls
		// observe monotonic time even across idle gaps.
		s.now = horizon
	}
	// Every event at or before the horizon has fired, including any at
	// the instant the clock now shows.
	s.firedKey = math.MaxUint64
	return n
}

// Fired reports whether an event at (at, key) would have fired by now
// had it been queued when it was drawn: at is before the clock, or at
// the clock's instant and key sorts at or before the fired frontier.
// key must be nonzero (an unkeyed event's key is 0). When RunBefore moves
// the clock past its last event, nothing has fired at the new instant, so
// a key there reads as not fired until an event at it fires or RunUntil
// passes it.
//
// Fired agrees with a queued event whenever at is after the instant the
// reservation was drawn. A reservation for the current instant can
// disagree: an event queued now at (now, key) fires next even when a
// higher-key event at this instant has already fired, yet Fired reports
// it fired. Callers queue such events at once instead of reserving them.
func (s *Simulator) Fired(at Time, key uint64) bool {
	return at < s.now || (at == s.now && key <= s.firedKey)
}

// RunBefore executes events with timestamps strictly less than horizon (or
// until the queue drains) and then advances the clock to horizon.
// The half-open window [now, horizon) is the primitive behind conservative
// parallel execution: a logical process granted a window may safely run
// every event before the window's end, while events *at* the end belong to
// the next window (a boundary arrival injected at the barrier could still
// land exactly at horizon and must order against them). It returns the
// number of events processed by this call. horizon must be finite.
func (s *Simulator) RunBefore(horizon Time) uint64 {
	if s.running {
		panic("des: RunBefore re-entered from within an event")
	}
	if math.IsInf(horizon, 0) || math.IsNaN(horizon) {
		panic("des: RunBefore horizon must be finite")
	}
	s.running = true
	defer func() { s.running = false }()

	var n uint64
	for {
		slot := s.qPeek()
		if slot < 0 || s.pool[slot].at >= horizon {
			break
		}
		s.Step()
		n++
	}
	if s.now < horizon {
		s.now = horizon
		s.firedKey = 0
	}
	return n
}
