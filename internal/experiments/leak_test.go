package experiments

import (
	"testing"

	"routesync/internal/routing"
)

// checkNoLeak asserts the pool accounting identity at a quiescent point:
// every live packet slot is either parked inside a simulator structure
// (queue, in-flight window, boundary machinery) or held by an agent
// awaiting CPU processing. Anything else is a leak — a terminal sink
// (delivery, drop, TTL expiry) that forgot to release its slot.
func checkNoLeak(t *testing.T, name string, live, parked int, agents []*routing.Agent) {
	t.Helper()
	pending := 0
	for _, ag := range agents {
		pending += ag.PendingPackets()
	}
	if live != parked+pending {
		t.Errorf("%s: %d live packets but only %d parked + %d agent-pending — %d leaked",
			name, live, parked, pending, live-parked-pending)
	}
}

// TestNetScaleReleasesAllPackets runs a quick ext_netscale configuration
// on 1, 2 and 4 logical processes and checks that every injected packet
// — routing updates, pings, echoes — reaches a releasing sink. The mid-
// run probe catches leaks that quiescence would mask (a slot both leaked
// and never reused looks identical to one parked forever).
func TestNetScaleReleasesAllPackets(t *testing.T) {
	for _, k := range []int{1, 2, 4} {
		sc := BuildNetScale(100, 25, k, 1, 90, nil)
		sc.Net.RunUntil(45)
		checkNoLeak(t, "netscale mid-run", sc.Net.LivePackets(), sc.Net.ParkedPackets(), sc.Agents)
		sc.Run()
		checkNoLeak(t, "netscale end", sc.Net.LivePackets(), sc.Net.ParkedPackets(), sc.Agents)
	}
}

// TestChurnReleasesAllPackets does the same for a quick ext_churn
// configuration: link flaps and router crashes exercise the failure
// sinks (drops on down links, queue flushes, agent crash resets), each
// of which must release the slots it terminates.
func TestChurnReleasesAllPackets(t *testing.T) {
	pol := ChurnPolicy{Triggered: true, HoldDown: 20}
	for _, k := range []int{1, 2, 4} {
		sc := BuildChurnBench(6, 8, k, 1, 40, pol, 120)
		sc.Net.RunUntil(60)
		checkNoLeak(t, "churn mid-run", sc.Net.LivePackets(), sc.Net.ParkedPackets(), sc.Agents)
		sc.Run()
		checkNoLeak(t, "churn end", sc.Net.LivePackets(), sc.Net.ParkedPackets(), sc.Agents)
	}
}
