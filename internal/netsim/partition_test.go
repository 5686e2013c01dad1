package netsim

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"routesync/internal/des"
)

// partitionSnapshot is everything a run observes: global counters,
// per-node stats, and the exact delivery timeline at every sink.
type partitionSnapshot struct {
	counters   Counters
	nodeStats  []NodeStats
	deliveries map[NodeID][]deliveryRecord
}

type deliveryRecord struct {
	At  float64
	Src NodeID
	Seq int64
	ID  uint64
}

// buildScaleTopo builds a two-level AS topology with legacy CPUs and a
// CBR + bursty traffic pattern crossing domain boundaries, then runs it
// in several RunUntil slices (exercising leftover boundary events between
// calls). owner == nil runs unpartitioned.
func runScaleTopo(t *testing.T, backend des.Backend, k int) partitionSnapshot {
	t.Helper()
	nw := newNetworkBackend(7, backend)
	const numAS, perAS = 6, 5
	topo := nw.BuildTwoLevelAS(TwoLevelASConfig{
		NumAS:        numAS,
		RoutersPerAS: perAS,
		IntraLink:    LinkConfig{Delay: 0.002, Bandwidth: 10e6, QueueCap: 16},
		InterLink:    LinkConfig{Delay: 0.01, Bandwidth: 1.5e6, QueueCap: 16},
		CPU:          &CPUConfig{InputQueueCap: 4, ForwardCost: 0.0002},
		Chords:       2,
	})
	// A couple of measurement hosts on distinct domains.
	hostA := nw.NewNode("hostA", nil)
	hostB := nw.NewNode("hostB", nil)
	nw.Connect(hostA, topo.Routers[0][2], LinkConfig{Delay: 0.001})
	nw.Connect(hostB, topo.Routers[numAS-1][3], LinkConfig{Delay: 0.001})
	// Random per-arrival loss at two transit routers.
	topo.Routers[1][0].LossProb = 0.05
	topo.Routers[3][1].LossProb = 0.05
	nw.InstallStaticRoutes()

	if k > 0 {
		nw.Partition(k, OwnerByBlock(perAS, numAS, k))
	}

	// Mid-run faults through the keyed event layer: flap two backbone
	// links (both cross partition boundaries for k ≥ 2) and crash/restore
	// one transit router while traffic flows. Scheduled transitions must
	// land after Partition, like every runtime event.
	l01 := linkBetweenNodes(topo.Gateways[0], topo.Gateways[1])
	l01.FailAt(1.1)
	l01.RestoreAt(2.3)
	l01.FailAt(6.8)
	l01.RestoreAt(8.0)
	l34 := linkBetweenNodes(topo.Gateways[3], topo.Gateways[4])
	l34.FailAt(0.9)
	l34.RestoreAt(4.2)
	crash := topo.Routers[numAS-1][3] // hostB's access router: transit for all host↔host CBR
	crash.Schedule(3.3, "crash", func() { crash.SetFailed(true) })
	crash.Schedule(5.1, "restore", func() { crash.SetFailed(false) })

	// Per-sink slices, not a shared map: each OnDeliver closure fires on
	// its sink's logical process, so every slice stays goroutine-confined.
	sinks := []*Node{hostA, hostB, topo.Routers[2][2]}
	perSink := make([][]deliveryRecord, len(sinks))
	for si, sink := range sinks {
		si, sink := si, sink
		if sink.OnDeliver == nil {
			sink.OnDeliver = make(map[Kind]func(*Packet))
		}
		sink.OnDeliver[KindData] = func(p *Packet) {
			perSink[si] = append(perSink[si],
				deliveryRecord{At: sink.Now(), Src: p.Src, Seq: p.Seq, ID: p.ID})
		}
	}

	// Traffic: CBR host↔host both ways, plus bursts from every gateway to
	// the far host, plus CPU occupancy storms stalling legacy forwarding.
	sendCBR := func(src *Node, dst NodeID, start, gap float64, count int, size int) {
		for i := 0; i < count; i++ {
			i := i
			src.Schedule(start+float64(i)*gap, "cbr", func() {
				pkt := nw.NewPacket(KindData, src.ID, dst, size)
				pkt.Seq = int64(i)
				nw.Inject(pkt)
			})
		}
	}
	sendCBR(hostA, hostB.ID, 0.05, 0.0201, 400, 180)
	sendCBR(hostB, hostA.ID, 0.07, 0.0301, 300, 180)
	sendCBR(hostB, topo.Routers[2][2].ID, 0.11, 0.0507, 150, 512)
	for a := 0; a < numAS; a++ {
		gw := topo.Gateways[a]
		sendCBR(gw, hostB.ID, 0.2+0.01*float64(a), 0.11, 60, 256)
	}
	for a := 0; a < numAS; a++ {
		for i := 0; i < perAS; i++ {
			r := topo.Routers[a][i]
			at := 0.5 + 0.37*float64(a*perAS+i)
			r.Schedule(at, "occupy", func() { r.CPU.Occupy(0.05) })
		}
	}

	// Advance in uneven slices so boundary events straddle RunUntil calls.
	for _, h := range []float64{0.3, 0.31, 2.5, 7, 12} {
		nw.RunUntil(h)
	}
	snap := partitionSnapshot{deliveries: make(map[NodeID][]deliveryRecord)}
	for si, sink := range sinks {
		snap.deliveries[sink.ID] = perSink[si]
	}
	snap.counters = nw.Counters()
	for _, nd := range nw.nodes {
		snap.nodeStats = append(snap.nodeStats, nd.Stats())
	}
	return snap
}

// newNetworkBackend is a test helper constructing a Network on an
// explicit backend (NewNetwork uses the ambient default).
func newNetworkBackend(seed int64, b des.Backend) *Network {
	n := NewNetwork(seed)
	n.Sim = des.NewBackend(b)
	return n
}

// TestPartitionDeterminism is the central property: for every partition
// count K (including the unpartitioned network) and both queue backends,
// a run is bit-identical — same counters, same per-node stats, same
// delivery timeline with the same packet ids.
func TestPartitionDeterminism(t *testing.T) {
	ref := runScaleTopo(t, des.BackendHeap, 0)
	if ref.counters.Delivered == 0 || ref.counters.TotalDropped() == 0 {
		t.Fatalf("degenerate reference run: %+v", ref.counters)
	}
	if ref.counters.Drops[DropLinkDown] == 0 || ref.counters.Drops[DropNodeDown] == 0 {
		t.Fatalf("fault machinery inert — no down-state drops: %+v", ref.counters.Drops)
	}
	found := false
	for _, rec := range ref.deliveries {
		if len(rec) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no deliveries recorded; test topology is wired wrong")
	}
	for _, backend := range []des.Backend{des.BackendHeap, des.BackendCalendar} {
		for _, k := range []int{0, 1, 2, 3, 6} {
			if backend == des.BackendHeap && k == 0 {
				continue // the reference itself
			}
			name := fmt.Sprintf("%v/k=%d", backend, k)
			got := runScaleTopo(t, backend, k)
			if !reflect.DeepEqual(got.counters, ref.counters) {
				t.Errorf("%s: counters diverge:\n got %+v\nwant %+v", name, got.counters, ref.counters)
			}
			if !reflect.DeepEqual(got.nodeStats, ref.nodeStats) {
				for i := range got.nodeStats {
					if !reflect.DeepEqual(got.nodeStats[i], ref.nodeStats[i]) {
						t.Errorf("%s: node %d stats diverge:\n got %+v\nwant %+v",
							name, i, got.nodeStats[i], ref.nodeStats[i])
					}
				}
			}
			if !reflect.DeepEqual(got.deliveries, ref.deliveries) {
				t.Errorf("%s: delivery timelines diverge", name)
			}
		}
	}
}

func TestPartitionValidation(t *testing.T) {
	t.Run("lan-span", func(t *testing.T) {
		nw := NewNetwork(1)
		a := nw.NewNode("a", nil)
		b := nw.NewNode("b", nil)
		nw.NewLAN([]*Node{a, b}, LANConfig{Delay: 0.001})
		defer expectPanic(t, "LAN spanning partitions")
		nw.Partition(2, func(id NodeID) int { return int(id) })
	})
	t.Run("zero-delay-boundary", func(t *testing.T) {
		nw := NewNetwork(1)
		a := nw.NewNode("a", nil)
		b := nw.NewNode("b", nil)
		nw.Connect(a, b, LinkConfig{Delay: 0})
		defer expectPanic(t, "zero-delay boundary link")
		nw.Partition(2, func(id NodeID) int { return int(id) })
	})
	for _, v := range []string{"optimistic", "Conservative", "bogus"} {
		t.Run("sync-mode-env="+v, func(t *testing.T) {
			t.Setenv(SyncModeEnv, v)
			nw := NewNetwork(1)
			nw.NewNode("a", nil)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "optimistic sync mode was removed") {
					t.Fatalf("%s=%q: panic = %q, want the removed-mode message", SyncModeEnv, v, msg)
				}
			}()
			nw.Partition(1, func(NodeID) int { return 0 })
		})
	}
	t.Run("sync-mode-env=conservative", func(t *testing.T) {
		t.Setenv(SyncModeEnv, "conservative")
		nw := NewNetwork(1)
		nw.NewNode("a", nil)
		nw.Partition(1, func(NodeID) int { return 0 })
		if nw.SyncMode() != SyncConservative {
			t.Fatalf("SyncMode = %v", nw.SyncMode())
		}
	})
	t.Run("owner-range", func(t *testing.T) {
		nw := NewNetwork(1)
		nw.NewNode("a", nil)
		defer expectPanic(t, "owner out of range")
		nw.Partition(2, func(NodeID) int { return 7 })
	})
	t.Run("double-partition", func(t *testing.T) {
		nw := NewNetwork(1)
		nw.NewNode("a", nil)
		nw.Partition(1, func(NodeID) int { return 0 })
		defer expectPanic(t, "double partition")
		nw.Partition(1, func(NodeID) int { return 0 })
	})
	t.Run("pending-events", func(t *testing.T) {
		nw := NewNetwork(1)
		nd := nw.NewNode("a", nil)
		nd.Schedule(1, "x", func() {})
		defer expectPanic(t, "partition with pending events")
		nw.Partition(1, func(NodeID) int { return 0 })
	})
	t.Run("root-events-after-partition", func(t *testing.T) {
		nw := NewNetwork(1)
		a := nw.NewNode("a", nil)
		b := nw.NewNode("b", nil)
		nw.Connect(a, b, LinkConfig{Delay: 0.01})
		nw.Partition(2, func(id NodeID) int { return int(id) })
		nw.Sim.Schedule(1, "rogue", func() {})
		defer expectPanic(t, "root events in partitioned run")
		nw.RunUntil(2)
	})
}

func expectPanic(t *testing.T, what string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("%s did not panic", what)
	}
}

func TestPartitionAccessors(t *testing.T) {
	nw := NewNetwork(1)
	a := nw.NewNode("a", nil)
	b := nw.NewNode("b", nil)
	c := nw.NewNode("c", nil)
	nw.Connect(a, b, LinkConfig{Delay: 0.25})
	nw.Connect(b, c, LinkConfig{Delay: 0.125})
	if nw.NumPartitions() != 0 || nw.PartitionOf(a.ID) != -1 {
		t.Fatal("unpartitioned accessors wrong")
	}
	if !math.IsInf(nw.Lookahead(), 0) && nw.Lookahead() != 0 {
		t.Fatalf("lookahead before partition = %v", nw.Lookahead())
	}
	nw.Partition(2, func(id NodeID) int {
		if id == c.ID {
			return 1
		}
		return 0
	})
	if nw.NumPartitions() != 2 {
		t.Fatalf("NumPartitions = %d", nw.NumPartitions())
	}
	if nw.PartitionOf(a.ID) != 0 || nw.PartitionOf(c.ID) != 1 {
		t.Fatal("PartitionOf wrong")
	}
	// Only b—c crosses: lookahead is its delay.
	if nw.Lookahead() != 0.125 {
		t.Fatalf("Lookahead = %v, want 0.125", nw.Lookahead())
	}
	// Independent partitions: +Inf lookahead.
	nw2 := NewNetwork(2)
	nw2.NewNode("x", nil)
	nw2.NewNode("y", nil)
	nw2.Partition(2, func(id NodeID) int { return int(id) })
	if !math.IsInf(nw2.Lookahead(), 1) {
		t.Fatalf("disconnected lookahead = %v, want +Inf", nw2.Lookahead())
	}
	nw2.RunUntil(5)
	if nw2.Now() != 5 {
		t.Fatalf("Now = %v after RunUntil(5)", nw2.Now())
	}
}

// firedTimes is a des.Observer recording the time of every fired event
// of a single-threaded run, and counting cancellations.
type firedTimes struct {
	at        []float64
	cancelled int
}

func (f *firedTimes) EventScheduled(float64, int)  {}
func (f *firedTimes) EventFired(at float64, _ int) { f.at = append(f.at, at) }
func (f *firedTimes) EventCancelled(float64, int)  { f.cancelled++ }

// busySets is a des.Observer and SyncObserver that, after every window,
// reads each partition's processed-event count and tallies the window by
// the set of partitions that fired events in it (bit i = partition i).
// It runs on the coordinator between windows, so reading the partition
// simulators is race-free.
type busySets struct {
	nw    *Network
	last  []uint64
	tally map[int]int
}

func (b *busySets) EventScheduled(float64, int) {}
func (b *busySets) EventFired(float64, int)     {}
func (b *busySets) EventCancelled(float64, int) {}

func (b *busySets) SyncWindow(float64, float64, int, float64) {
	set := 0
	for i, p := range b.nw.parts {
		if n := p.sim.Processed(); n != b.last[i] {
			set |= 1 << i
			b.last[i] = n
		}
	}
	b.tally[set]++
}

// idleLPHorizons are the RunUntil slices of runIdleLPTopo.
var idleLPHorizons = []float64{1.2, 2.8, 3.7, 3.7001, 6}

// runIdleLPTopo builds two host chains, A (partition 0) and B (partition
// 2), joined by a 10 ms link, plus a two-node stub hanging off A by a
// 4 ms link (partition 1) that no packet ever addresses. Traffic stays
// inside A until t=1, inside B from t=1.5 to 2.5, and crosses between A
// and B from t=3, so at k=3 windows have one busy partition (either end)
// or two, and partition 1 never has an event. k == 0 runs unpartitioned.
func runIdleLPTopo(t *testing.T, k int, obs des.Observer) (*Network, partitionSnapshot) {
	t.Helper()
	nw := NewNetwork(11)
	cfg := LinkConfig{Delay: 0.002, Bandwidth: 1e6, QueueCap: 4}
	a := nw.BuildChain([]string{"a0", "a1", "a2", "a3"}, nil, cfg)
	b := nw.BuildChain([]string{"b0", "b1", "b2", "b3"}, nil, cfg)
	stub := nw.BuildChain([]string{"s0", "s1"}, nil, cfg)
	nw.Connect(a[3], b[0], LinkConfig{Delay: 0.01, Bandwidth: 1e6, QueueCap: 4})
	nw.Connect(stub[0], a[0], LinkConfig{Delay: 0.004})
	nw.InstallStaticRoutes()
	if k > 0 {
		owner := func(id NodeID) int {
			switch {
			case id <= a[3].ID:
				return 0
			case id <= b[3].ID:
				return 2 % k
			default:
				return 1 % k
			}
		}
		nw.Partition(k, owner)
	}
	if bs, ok := obs.(*busySets); ok {
		bs.nw = nw
	}
	if obs != nil {
		nw.SetObserver(obs)
	}

	sinks := []*Node{a[0], a[3], b[0], b[3], b[1]}
	perSink := make([][]deliveryRecord, len(sinks))
	for si, sink := range sinks {
		si, sink := si, sink
		sink.OnDeliver = map[Kind]func(*Packet){KindData: func(p *Packet) {
			perSink[si] = append(perSink[si],
				deliveryRecord{At: sink.Now(), Src: p.Src, Seq: p.Seq, ID: p.ID})
		}}
	}
	sendCBR := func(src, dst *Node, start, gap float64, count, size int) {
		for i := 0; i < count; i++ {
			i := i
			src.Schedule(start+float64(i)*gap, "cbr", func() {
				pkt := nw.NewPacket(KindData, src.ID, dst.ID, size)
				pkt.Seq = int64(i)
				nw.Inject(pkt)
			})
		}
	}
	sendCBR(a[0], a[3], 0.05, 0.013, 70, 256)   // A only
	sendCBR(a[3], a[0], 0.06, 0.029, 30, 128)   // A only
	sendCBR(b[3], b[0], 1.5, 0.017, 55, 256)    // B only
	sendCBR(b[0], b[3], 1.51, 0.041, 20, 64)    // B only
	sendCBR(a[0], b[3], 3.0, 0.007, 200, 512)   // A→B
	sendCBR(b[3], a[0], 3.002, 0.011, 120, 256) // B→A
	sendCBR(a[1], b[1], 3.5, 0.0005, 20, 512)   // burst: queue drops

	for _, h := range idleLPHorizons {
		nw.RunUntil(h)
		for _, p := range nw.parts {
			if now := p.sim.Now(); now != h {
				t.Fatalf("k=%d: partition %d clock %v after RunUntil(%v)", k, p.idx, now, h)
			}
		}
	}
	snap := partitionSnapshot{deliveries: make(map[NodeID][]deliveryRecord)}
	for si, sink := range sinks {
		snap.deliveries[sink.ID] = perSink[si]
	}
	snap.counters = nw.Counters()
	for _, nd := range nw.nodes {
		snap.nodeStats = append(snap.nodeStats, nd.Stats())
	}
	return nw, snap
}

// plannedWindows replays the window planning rule over the event times of
// a sequential run: per RunUntil slice, a window starts at the earliest
// event not before the previous window's end and ends lookahead later
// (clipped to the horizon), and a final inclusive pass ends every slice.
// It holds when no event is cancelled, since then every pending event
// fires and the earliest pending event is the earliest unfired one.
func plannedWindows(fired []float64, horizons []float64, lookahead float64) uint64 {
	var windows uint64
	i := 0
	for _, h := range horizons {
		wend := math.Inf(-1)
		for ; i < len(fired) && fired[i] < h; i++ {
			if fired[i] >= wend {
				windows++
				wend = math.Min(fired[i]+lookahead, h)
			}
		}
		for ; i < len(fired) && fired[i] == h; i++ {
		}
		windows++ // inclusive pass
	}
	return windows
}

// TestPartitionIdleLPWindows covers the window paths where the
// coordinator runs a window alone (one busy partition, at either end of
// the partition list), where it runs one busy partition and wakes a
// worker for another, and where a partition is idle throughout: the k=3
// run must match the sequential run in counters, per-node stats and
// delivery timelines, keep every clock at each horizon, and count the
// windows the planning rule gives for the sequential run's events.
func TestPartitionIdleLPWindows(t *testing.T) {
	seq := &firedTimes{}
	_, ref := runIdleLPTopo(t, 0, seq)
	if ref.counters.Delivered == 0 || ref.counters.Drops[DropQueueOverflow] == 0 {
		t.Fatalf("degenerate reference run: %+v", ref.counters)
	}
	if seq.cancelled != 0 {
		t.Fatalf("reference run cancelled %d events; the window replay needs none", seq.cancelled)
	}
	for _, k := range []int{1, 3} {
		var obs des.Observer
		var busy *busySets
		if k == 3 {
			busy = &busySets{last: make([]uint64, k), tally: make(map[int]int)}
			obs = busy
		}
		nw, got := runIdleLPTopo(t, k, obs)
		if !reflect.DeepEqual(got.counters, ref.counters) {
			t.Errorf("k=%d: counters diverge:\n got %+v\nwant %+v", k, got.counters, ref.counters)
		}
		if !reflect.DeepEqual(got.nodeStats, ref.nodeStats) {
			t.Errorf("k=%d: per-node stats diverge", k)
		}
		if !reflect.DeepEqual(got.deliveries, ref.deliveries) {
			t.Errorf("k=%d: delivery timelines diverge", k)
		}
		if k == 1 {
			continue
		}
		want := plannedWindows(seq.at, idleLPHorizons, nw.Lookahead())
		if w := nw.SyncStats().Windows; w != want {
			t.Errorf("k=3: %d windows, want %d from the sequential run's events", w, want)
		}
		if n := nw.parts[1].sim.Processed(); n != 0 {
			t.Errorf("idle partition 1 fired %d events", n)
		}
		for _, set := range []int{0b001, 0b100, 0b101} {
			if busy.tally[set] == 0 {
				t.Errorf("no window with busy set %03b; tally %v", set, busy.tally)
			}
		}
	}
}
