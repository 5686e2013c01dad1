package workload

import (
	"math"
	"testing"

	"routesync/internal/netsim"
)

func pingPath(seed int64, cpu *netsim.CPUConfig) (*netsim.Network, []*netsim.Node) {
	n := netsim.NewNetwork(seed)
	nodes := n.BuildChain(
		[]string{"src", "r", "dst"},
		[]*netsim.CPUConfig{nil, cpu, nil},
		netsim.LinkConfig{Delay: 0.01},
	)
	return n, nodes
}

func TestPingAllAnswered(t *testing.T) {
	n, nodes := pingPath(1, nil)
	p := NewPinger(nodes[0], nodes[2], PingConfig{Interval: 1.01, Count: 50})
	p.Start(0)
	n.RunUntil(100)
	res := p.Result()
	if res.Sent != 50 || res.Lost() != 0 {
		t.Fatalf("sent %d lost %d", res.Sent, res.Lost())
	}
	for i, rtt := range res.RTTs {
		if math.Abs(rtt-0.04) > 1e-9 { // 2 hops × 10 ms × 2 directions
			t.Fatalf("ping %d rtt = %v, want 0.04", i, rtt)
		}
	}
	if res.LossRate() != 0 {
		t.Fatalf("loss rate = %v", res.LossRate())
	}
}

func TestPingLossDuringCPUBusy(t *testing.T) {
	n, nodes := pingPath(2, &netsim.CPUConfig{})
	p := NewPinger(nodes[0], nodes[2], PingConfig{Interval: 1.0, Count: 20})
	p.Start(0.5) // pings at 0.5, 1.5, 2.5, ...
	// Block the router 4.9..8.1: pings at 5.5, 6.5, 7.5 die.
	n.Sim.Schedule(4.9, "occupy", func() { nodes[1].CPU.Occupy(3.2) })
	n.RunUntil(60)
	res := p.Result()
	if res.Lost() != 3 {
		t.Fatalf("lost %d pings, want 3 (RTTs %v)", res.Lost(), res.RTTs)
	}
	for i, rtt := range res.RTTs {
		lost := math.IsNaN(rtt)
		wantLost := i == 5 || i == 6 || i == 7
		if lost != wantLost {
			t.Fatalf("ping %d lost=%v, want %v", i, lost, wantLost)
		}
	}
}

func TestPingRTTsFilled(t *testing.T) {
	r := PingResult{Sent: 3, RTTs: []float64{0.1, math.NaN(), 0.2}}
	got := r.RTTsFilled(2.0)
	if got[0] != 0.1 || got[1] != 2.0 || got[2] != 0.2 {
		t.Fatalf("filled = %v", got)
	}
	if r.Lost() != 1 || math.Abs(r.LossRate()-1.0/3) > 1e-12 {
		t.Fatalf("lost %d rate %v", r.Lost(), r.LossRate())
	}
}

func TestPingLateReplyCountsAsLost(t *testing.T) {
	// A reply that arrives after Timeout must not be recorded.
	n := netsim.NewNetwork(3)
	nodes := n.BuildChain([]string{"src", "dst"}, nil, netsim.LinkConfig{Delay: 0.8})
	p := NewPinger(nodes[0], nodes[1], PingConfig{Interval: 1.0, Count: 3, Timeout: 1.0})
	p.Start(0)
	n.RunUntil(30)
	res := p.Result()
	// RTT is 1.6 s > timeout 1.0 s.
	if res.Lost() != 3 {
		t.Fatalf("late replies recorded: %v", res.RTTs)
	}
}

func TestPingConfigValidation(t *testing.T) {
	n := netsim.NewNetwork(4)
	nodes := n.BuildChain([]string{"a", "b"}, nil, netsim.LinkConfig{})
	for _, cfg := range []PingConfig{
		{Interval: 0, Count: 5},
		{Interval: 1, Count: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid ping config did not panic")
				}
			}()
			NewPinger(nodes[0], nodes[1], cfg)
		}()
	}
}

func TestAudioCleanDelivery(t *testing.T) {
	n, nodes := pingPath(5, nil)
	s := NewAudioStream(nodes[0], nodes[2], AudioConfig{Rate: 50, Duration: 10})
	s.Start(0)
	n.RunUntil(20)
	res := s.Result()
	if len(res.Received) != 500 || res.Lost() != 0 {
		t.Fatalf("sent %d lost %d", len(res.Received), res.Lost())
	}
	if len(res.Outages()) != 0 {
		t.Fatalf("outages on a clean path: %v", res.Outages())
	}
}

func TestAudioOutageExtraction(t *testing.T) {
	res := AudioResult{
		Received: []bool{true, false, false, true, false, true, true, false},
		Gap:      0.02,
		Start:    100,
	}
	outs := res.Outages()
	if len(outs) != 3 {
		t.Fatalf("outages = %+v", outs)
	}
	if math.Abs(outs[0].Start-100.02) > 1e-9 || math.Abs(outs[0].Duration-0.04) > 1e-9 {
		t.Fatalf("first outage = %+v", outs[0])
	}
	if math.Abs(outs[1].Duration-0.02) > 1e-9 || math.Abs(outs[2].Duration-0.02) > 1e-9 {
		t.Fatalf("outages = %+v", outs)
	}
	// trailing outage is flushed
	if math.Abs(outs[2].Start-100.14) > 1e-9 {
		t.Fatalf("trailing outage = %+v", outs[2])
	}
}

func TestAudioLossDuringCPUBusy(t *testing.T) {
	n, nodes := pingPath(6, &netsim.CPUConfig{})
	s := NewAudioStream(nodes[0], nodes[2], AudioConfig{Rate: 50, Duration: 30})
	s.Start(0)
	// Two busy periods: 10.0–11.5 and 20.0–21.5.
	n.Sim.Schedule(10, "occupy1", func() { nodes[1].CPU.Occupy(1.5) })
	n.Sim.Schedule(20, "occupy2", func() { nodes[1].CPU.Occupy(1.5) })
	n.RunUntil(60)
	res := s.Result()
	outs := res.Outages()
	if len(outs) != 2 {
		t.Fatalf("outages = %+v, want 2", outs)
	}
	for _, o := range outs {
		if math.Abs(o.Duration-1.5) > 0.1 {
			t.Fatalf("outage duration = %v, want ~1.5", o.Duration)
		}
	}
	if r := res.LossRateIn(10, 11.5); r < 0.95 {
		t.Fatalf("loss rate in busy window = %v, want ~1", r)
	}
	if r := res.LossRateIn(0, 10); r != 0 {
		t.Fatalf("loss rate before busy window = %v, want 0", r)
	}
}

func TestAudioConfigValidation(t *testing.T) {
	n := netsim.NewNetwork(7)
	nodes := n.BuildChain([]string{"a", "b"}, nil, netsim.LinkConfig{})
	for _, cfg := range []AudioConfig{
		{Rate: 0, Duration: 5},
		{Rate: 50, Duration: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid audio config did not panic")
				}
			}()
			NewAudioStream(nodes[0], nodes[1], cfg)
		}()
	}
}

func TestAudioLossRateInEmptyWindow(t *testing.T) {
	res := AudioResult{Received: []bool{true, false}, Gap: 0.02, Start: 0}
	if r := res.LossRateIn(100, 200); r != 0 {
		t.Fatalf("empty window rate = %v", r)
	}
}

func TestPingRTTQuantile(t *testing.T) {
	r := PingResult{Sent: 5, RTTs: []float64{0.1, math.NaN(), 0.3, 0.2, math.NaN()}}
	if got := r.RTTQuantile(0.5); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("median = %v, want 0.2", got)
	}
	if got := r.RTTQuantile(0); got != 0.1 {
		t.Fatalf("min = %v", got)
	}
	allLost := PingResult{Sent: 2, RTTs: []float64{math.NaN(), math.NaN()}}
	if !math.IsNaN(allLost.RTTQuantile(0.5)) {
		t.Fatal("quantile of all-lost run should be NaN")
	}
}
