package runner

import (
	"sync/atomic"

	"routesync/internal/des"
)

// Metrics accumulates engine observer notifications for one experiment
// run. It implements both des.Observer and periodic.Observer (des.Time is
// a float64 alias, so plain float64 signatures satisfy both interfaces).
// All methods are lock-free atomic updates: the simulation thread pays a
// few nanoseconds per event and zero allocations, and an experiment's
// concurrent replications may observe into one Metrics.
type Metrics struct {
	scheduled atomic.Uint64
	fired     atomic.Uint64
	cancelled atomic.Uint64
	rounds    atomic.Uint64
	maxDepth  atomic.Int64

	// syncWindows counts partition windows, fed by netsim.SyncObserver
	// callbacks (one per window, from the coordinator only).
	syncWindows atomic.Uint64
}

// EventScheduled implements des.Observer.
func (m *Metrics) EventScheduled(at float64, depth int) {
	m.scheduled.Add(1)
	m.bumpDepth(int64(depth))
}

// EventFired implements des.Observer.
func (m *Metrics) EventFired(at float64, depth int) {
	m.fired.Add(1)
}

// EventCancelled implements des.Observer.
func (m *Metrics) EventCancelled(at float64, depth int) {
	m.cancelled.Add(1)
}

// RoundCompleted implements periodic.Observer.
func (m *Metrics) RoundCompleted(now float64, size int) {
	m.rounds.Add(1)
}

// SyncWindow implements netsim.SyncObserver: one call per window of a
// partitioned run.
func (m *Metrics) SyncWindow(gvt, lag float64, rollbacks int, maxDepth float64) {
	m.syncWindows.Add(1)
}

// bumpDepth is a CAS max: concurrent engines (replications on the job
// runner) may observe into one Metrics.
func (m *Metrics) bumpDepth(d int64) {
	for {
		cur := m.maxDepth.Load()
		if d <= cur || m.maxDepth.CompareAndSwap(cur, d) {
			return
		}
	}
}

// MetricsSnapshot is the manifest's per-experiment metrics block.
type MetricsSnapshot struct {
	EventsScheduled uint64 `json:"events_scheduled,omitempty"`
	EventsFired     uint64 `json:"events_fired,omitempty"`
	EventsCancelled uint64 `json:"events_cancelled,omitempty"`
	// EventQueuePeakDepth is the deepest the DES event queue got across
	// every engine this experiment ran, whichever queue backend held it.
	EventQueuePeakDepth int64  `json:"event_queue_peak_depth,omitempty"`
	RoundsCompleted     uint64 `json:"rounds_completed,omitempty"`
	// DESBackend records which event-queue backend the run's DES kernels
	// used (heap or calendar), so a manifest diff can attribute a timing
	// shift to a backend switch. Empty when the experiment scheduled no
	// DES events.
	DESBackend string `json:"des_backend,omitempty"`
	// SyncWindows counts partition windows (barrier rounds).
	SyncWindows uint64 `json:"sync_windows,omitempty"`
}

// Snapshot returns the current counts, or nil if nothing was observed —
// experiments whose engines aren't instrumented get no metrics block
// rather than a block of zeros.
func (m *Metrics) Snapshot() *MetricsSnapshot {
	if m == nil {
		return nil
	}
	s := &MetricsSnapshot{
		EventsScheduled:     m.scheduled.Load(),
		EventsFired:         m.fired.Load(),
		EventsCancelled:     m.cancelled.Load(),
		EventQueuePeakDepth: m.maxDepth.Load(),
		RoundsCompleted:     m.rounds.Load(),
		SyncWindows:         m.syncWindows.Load(),
	}
	if *s == (MetricsSnapshot{}) {
		return nil
	}
	if s.EventsScheduled > 0 {
		s.DESBackend = des.DefaultBackend().String()
	}
	return s
}
