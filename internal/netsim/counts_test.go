package netsim

import (
	"sync"
	"testing"

	"routesync/internal/des"
)

// countObserver tallies what every simulator of a network pushes through
// its observer hook. Partitions call it concurrently.
type countObserver struct {
	mu sync.Mutex
	c  des.Counts
}

func (o *countObserver) EventScheduled(at float64, depth int) {
	o.mu.Lock()
	o.c.Scheduled++
	o.c.PeakDepth = max(o.c.PeakDepth, depth)
	o.mu.Unlock()
}

func (o *countObserver) EventFired(at float64, depth int) {
	o.mu.Lock()
	o.c.Fired++
	o.mu.Unlock()
}

func (o *countObserver) EventCancelled(at float64, depth int) {
	o.mu.Lock()
	o.c.Cancelled++
	o.mu.Unlock()
}

// TestNetworkCountsMatchObserver: the counts a network reads from its
// simulators equal what a counting observer saw on all of them, on a
// partitioned scenario at K = 1 and K = 2, with cross-partition traffic,
// a link flap and cancelled timers. Scheduled, fired and cancelled are
// K-invariant; the peak depth is per queue, so it may differ.
func TestNetworkCountsMatchObserver(t *testing.T) {
	const numAS, perAS = 4, 4
	run := func(k int) des.Counts {
		nw := NewNetwork(5)
		obs := &countObserver{}
		nw.SetObserver(obs)
		topo := nw.BuildTwoLevelAS(TwoLevelASConfig{
			NumAS:        numAS,
			RoutersPerAS: perAS,
			IntraLink:    LinkConfig{Delay: 0.002, Bandwidth: 10e6, QueueCap: 16},
			InterLink:    LinkConfig{Delay: 0.01, Bandwidth: 1.5e6, QueueCap: 8},
			CPU:          &CPUConfig{InputQueueCap: 4, ForwardCost: 0.0002},
			Chords:       1,
		})
		nw.InstallRoutesToward(allNodes(nw))
		nw.Partition(k, OwnerByBlock(perAS, numAS, k))
		l := linkBetweenNodes(topo.Gateways[0], topo.Gateways[1])
		l.FailAt(0.7)
		l.RestoreAt(1.6)
		for a := 0; a < numAS; a++ {
			for i := 0; i < perAS; i++ {
				src := topo.Routers[a][i]
				dst := topo.Routers[(a+numAS/2)%numAS][(i+1)%perAS].ID
				for j := 0; j < 40; j++ {
					src.Schedule(0.01+0.05*float64(j)+0.001*float64(i), "cbr", func() {
						nw.Inject(nw.NewPacket(KindData, src.ID, dst, 400))
					})
				}
				// A timeout that a later event cancels on every other router.
				timeout := src.Schedule(2.5, "timeout", func() {})
				if (a+i)%2 == 0 {
					src.Schedule(1.2, "cancel", func() { src.Cancel(timeout) })
				}
			}
		}
		for _, h := range []float64{0.5, 1.3, 3} {
			nw.RunUntil(h)
		}
		got := nw.Counts()
		if got != obs.c {
			t.Errorf("k=%d: Counts() = %+v, observer saw %+v", k, got, obs.c)
		}
		if k == 2 && nw.SyncStats().Windows == 0 {
			t.Errorf("k=2: no partition windows")
		}
		return got
	}
	one, two := run(1), run(2)
	if one.Cancelled != numAS*perAS/2 || one.Fired == 0 || one.PeakDepth == 0 {
		t.Fatalf("degenerate scenario: %+v", one)
	}
	if one.Scheduled != two.Scheduled || one.Fired != two.Fired || one.Cancelled != two.Cancelled {
		t.Errorf("counts differ across K: k=1 %+v, k=2 %+v", one, two)
	}
}
