package netsim

import (
	"fmt"
	"os"
)

// SyncMode names how a partitioned network's logical processes
// synchronize. Conservative bounded-window execution (partition.go) is
// the only mode; the type remains so run reports can record it.
type SyncMode int

// SyncConservative is bounded-window (YAWNS-style) barrier execution,
// throttled by the cross-partition lookahead.
const SyncConservative SyncMode = 0

// String returns the mode name.
func (m SyncMode) String() string { return "conservative" }

// SyncModeEnv is the environment variable that selected the
// synchronization mode while the simulator had more than one. Partition
// accepts it unset or "conservative" and panics on anything else, so a
// stale selection fails loudly instead of silently running conservative.
const SyncModeEnv = "ROUTESYNC_SYNC_MODE"

// checkSyncModeEnv panics unless ROUTESYNC_SYNC_MODE is unset, empty or
// "conservative".
func checkSyncModeEnv() {
	switch v := os.Getenv(SyncModeEnv); v {
	case "", "conservative":
	default:
		panic(fmt.Sprintf("netsim: %s=%q: the optimistic sync mode was removed; conservative is the only mode (unset the variable or set it to \"conservative\")",
			SyncModeEnv, v))
	}
}

// SyncStats summarizes a partitioned network's synchronization work so
// far. Counters are cumulative across RunUntil calls and are only
// updated between windows on the coordinator, so reading them between
// calls is race-free.
type SyncStats struct {
	// Windows counts barrier rounds.
	Windows uint64
	// Rollbacks is always 0: conservative windows never roll back. It
	// stays for readers that report it.
	Rollbacks uint64
}

// SyncStats returns the accumulated synchronization statistics.
func (n *Network) SyncStats() SyncStats { return n.syncStats }

// SyncMode returns the network's synchronization mode (always
// SyncConservative).
func (n *Network) SyncMode() SyncMode { return SyncConservative }

// SyncObserver receives one callback per window. A des Observer
// installed via SetObserver that also implements SyncObserver gets wired
// up automatically (the runner's metrics observer does). gvt is the
// window's end; lag, rollbacks and maxDepth describe speculative
// execution, which conservative windows never do, so they are always 0.
// Called only from the coordinator, between windows.
type SyncObserver interface {
	SyncWindow(gvt, lag float64, rollbacks int, maxDepth float64)
}
