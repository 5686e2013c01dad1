package runner

import "routesync/internal/des"

// Counts is the work an experiment's engines did: the DES events of its
// packet simulations, their partition windows, and the cluster firings
// (rounds) of its Periodic Messages models. Each engine keeps its counts
// as it runs; the experiment reads them once its runs end and adds up
// its cells and replications in index order.
type Counts struct {
	Events  des.Counts
	Windows uint64
	Rounds  uint64
}

// Add sums o into c.
func (c *Counts) Add(o Counts) {
	c.Events.Add(o.Events)
	c.Windows += o.Windows
	c.Rounds += o.Rounds
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

// snapshot returns the counts as a metrics block, or nil if they are all
// zero: experiments that run none of the counting engines get no metrics
// block rather than a block of zeros.
func (c Counts) snapshot() *MetricsSnapshot {
	if c == (Counts{}) {
		return nil
	}
	s := &MetricsSnapshot{
		EventsScheduled:     c.Events.Scheduled,
		EventsFired:         c.Events.Fired,
		EventsCancelled:     c.Events.Cancelled,
		EventQueuePeakDepth: int64(c.Events.PeakDepth),
		RoundsCompleted:     c.Rounds,
		SyncWindows:         c.Windows,
	}
	if s.EventsScheduled > 0 {
		s.DESBackend = des.DefaultBackend().String()
	}
	return s
}
