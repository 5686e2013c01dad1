package experiments

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"routesync/internal/netsim"
	"routesync/internal/routing"
	"routesync/internal/workload"
)

// metroLANSnap captures everything the metro-LAN scenario computes that a
// user could observe: the end-to-end ping result, network counters, and
// per-agent protocol statistics.
type metroLANSnap struct {
	ping     workload.PingResult
	counters netsim.Counters
	stats    []routing.Stats
}

func runMetroLAN(seg, per, k int, horizon float64) (metroLANSnap, netsim.SyncStats) {
	sc := BuildMetroLAN(seg, per, k, 3, horizon, nil)
	sc.Run()
	snap := metroLANSnap{ping: sc.Pinger.Result(), counters: sc.Net.Counters()}
	// Lost pings record NaN RTTs, which reflect.DeepEqual treats as
	// unequal to themselves; map them to a comparable sentinel.
	for i, v := range snap.ping.RTTs {
		if math.IsNaN(v) {
			snap.ping.RTTs[i] = -1
		}
	}
	for _, ag := range sc.Agents {
		snap.stats = append(snap.stats, ag.Stats())
	}
	return snap, sc.Net.SyncStats()
}

// TestMetroLANKInvariant is the determinism gate for the low-lookahead
// scenario: partitioned runs at every K are bit-identical to the K=1
// reference — ping RTT timeline, network counters, and every agent's
// protocol statistics — while crossing many 100 µs bridge windows.
func TestMetroLANKInvariant(t *testing.T) {
	const seg, per = 8, 6
	const horizon = 15.0
	ref, _ := runMetroLAN(seg, per, 1, horizon)
	if ref.counters.Delivered == 0 || ref.ping.Sent == 0 {
		t.Fatalf("degenerate reference run: %+v", ref.counters)
	}
	if ref.ping.Lost() == ref.ping.Sent {
		t.Fatal("all pings lost; the bridged topology never converged")
	}
	for _, k := range []int{1, 2, 4} {
		name := fmt.Sprintf("k=%d", k)
		got, stats := runMetroLAN(seg, per, k, horizon)
		if k > 1 && stats.Windows < 100 {
			t.Errorf("%s: %d windows, want ≥100 bridge-bounded windows", name, stats.Windows)
		}
		if !reflect.DeepEqual(got.counters, ref.counters) {
			t.Errorf("%s: counters diverge:\n got %+v\nwant %+v", name, got.counters, ref.counters)
		}
		if !reflect.DeepEqual(got.ping, ref.ping) {
			t.Errorf("%s: ping results diverge:\n got %+v\nwant %+v", name, got.ping, ref.ping)
		}
		if !reflect.DeepEqual(got.stats, ref.stats) {
			t.Errorf("%s: agent stats diverge", name)
		}
	}
}
