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
// The kernel is steady-state allocation-free: events live in a pooled slot
// array owned by the Simulator and are recycled through a free list, so a
// long simulation allocates only while the pool grows to the peak
// concurrent event count. Event handles are generation-counted values —
// a handle to an event that has fired or been cancelled is recognized as
// stale (Scheduled reports false, Cancel is a no-op) even if its slot has
// been reused, so callers may retain handles without lifetime discipline.
package des

import (
	"fmt"
	"math"
)

// Time is simulation time in seconds. Using a named float64 keeps call
// sites honest about units without the overhead of a struct.
type Time = float64

// Event is a generation-counted handle to a scheduled callback. It is a
// small value, cheap to copy and store. The zero Event is inert: it is
// never Scheduled and cancelling it is a no-op.
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
	label  string
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

// At returns the time the event is scheduled for, or +Inf if the event
// already fired or was cancelled.
func (e Event) At() Time {
	if ev, ok := e.live(); ok {
		return ev.at
	}
	return math.Inf(1)
}

// Label returns the diagnostic label given at scheduling time, or "" if
// the event already fired or was cancelled.
func (e Event) Label() string {
	if ev, ok := e.live(); ok {
		return ev.label
	}
	return ""
}

// Scheduled reports whether the event is still pending in its queue.
func (e Event) Scheduled() bool {
	_, ok := e.live()
	return ok
}

// Observer receives kernel lifecycle notifications. All methods are called
// synchronously from within the simulation thread; implementations must not
// call back into the Simulator. depth is the queue length after the
// operation. A nil observer (the default) costs a single predictable branch
// per operation and zero allocations; implementations that only bump
// counters keep the hot paths allocation-free, since the arguments are
// scalars and the interface call does not escape them.
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
	stopped   bool
	obs       Observer
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

// Processed returns the number of events executed so far.
func (s *Simulator) Processed() uint64 { return s.processed }

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
	ev.label = ""
	s.free = append(s.free, slot)
}

// Schedule queues fn to run at absolute time at. It panics if at precedes
// the current clock (scheduling into the past is always a bug) or is NaN.
// The label is kept for diagnostics and error messages.
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
		panic(fmt.Sprintf("des: Schedule(%q) at %v before now %v", label, at, s.now))
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
	}
	ev := &s.pool[slot]
	ev.at = at
	ev.key = key
	ev.seq = s.seq
	ev.fn = fn
	ev.label = label
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

// AfterKeyed queues fn to run delay seconds from now with a logical
// priority key; see ScheduleKeyed.
func (s *Simulator) AfterKeyed(delay Time, key uint64, label string, fn func()) Event {
	return s.ScheduleKeyed(s.now+delay, key, label, fn)
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

// Run executes events until the queue drains or Stop is called. It returns
// the number of events processed by this call.
func (s *Simulator) Run() uint64 {
	return s.RunUntil(math.Inf(1))
}

// RunUntil executes events with timestamps <= horizon (or until Stop or an
// empty queue) and then advances the clock to min(horizon, next event time).
// It returns the number of events processed by this call.
func (s *Simulator) RunUntil(horizon Time) uint64 {
	if s.running {
		panic("des: RunUntil re-entered from within an event")
	}
	s.running = true
	s.stopped = false
	defer func() { s.running = false }()

	var n uint64
	for !s.stopped {
		slot := s.qPeek()
		if slot < 0 || s.pool[slot].at > horizon {
			break
		}
		s.Step()
		n++
	}
	if !s.stopped && !math.IsInf(horizon, 1) && s.now < horizon {
		// Advance the clock to the horizon so repeated RunUntil calls
		// observe monotonic time even across idle gaps.
		s.now = horizon
	}
	return n
}

// RunBefore executes events with timestamps strictly less than horizon (or
// until Stop or an empty queue) and then advances the clock to horizon.
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
	s.stopped = false
	defer func() { s.running = false }()

	var n uint64
	for !s.stopped {
		slot := s.qPeek()
		if slot < 0 || s.pool[slot].at >= horizon {
			break
		}
		s.Step()
		n++
	}
	if !s.stopped && s.now < horizon {
		s.now = horizon
	}
	return n
}

// RunCount executes at most n events. It returns the number processed,
// which is less than n only if the queue drained or Stop was called.
func (s *Simulator) RunCount(n uint64) uint64 {
	if s.running {
		panic("des: RunCount re-entered from within an event")
	}
	s.running = true
	s.stopped = false
	defer func() { s.running = false }()
	var done uint64
	for done < n && s.Pending() > 0 && !s.stopped {
		s.Step()
		done++
	}
	return done
}

// Stop halts the enclosing Run/RunUntil/RunCount after the current event
// returns. Calling Stop outside an event is harmless.
func (s *Simulator) Stop() { s.stopped = true }

// Ticker schedules fn repeatedly. The next interval is obtained from the
// period callback after each firing, which is how jittered routing timers
// are expressed (the period callback draws from the jitter policy).
//
// The re-arm closure is allocated once at construction, so a running
// ticker adds no per-firing garbage beyond the kernel's pooled event.
type Ticker struct {
	sim    *Simulator
	event  Event
	period func() Time
	fn     func()
	fire   func() // hoisted re-arm closure, allocated once
	label  string
	stopit bool
}

// NewTicker creates and starts a ticker whose first firing is period() from
// now and which re-arms itself with a fresh period() after each firing.
func (s *Simulator) NewTicker(label string, period func() Time, fn func()) *Ticker {
	t := &Ticker{sim: s, period: period, fn: fn, label: label}
	t.fire = func() {
		t.fn()
		if !t.stopit {
			t.arm()
		}
	}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	d := t.period()
	if d < 0 {
		panic("des: ticker period() returned negative delay")
	}
	t.event = t.sim.After(d, t.label, t.fire)
}

// Stop cancels future firings. If called from within fn it prevents the
// re-arm; otherwise it cancels the pending event.
func (t *Ticker) Stop() {
	t.stopit = true
	t.sim.Cancel(t.event)
}

// Reset cancels the pending firing and re-arms with a fresh period() from
// the current instant. This models a router resetting its routing timer.
func (t *Ticker) Reset() {
	t.sim.Cancel(t.event)
	t.stopit = false
	t.arm()
}

// NextAt returns the absolute time of the pending firing, or +Inf if the
// ticker is stopped.
func (t *Ticker) NextAt() Time {
	return t.event.At()
}
