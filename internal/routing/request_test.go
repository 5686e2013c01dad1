package routing

import (
	"testing"

	"routesync/internal/jitter"
	"routesync/internal/netsim"
)

func TestWireRequestFlag(t *testing.T) {
	buf, err := EncodeInto(nil, Message{Router: 3, Request: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Request || got.Triggered || got.Router != 3 {
		t.Fatalf("round trip = %+v", got)
	}
	// Both flags together survive too.
	buf2, _ := EncodeInto(nil, Message{Router: 4, Request: true, Triggered: true})
	got2, _ := Decode(buf2)
	if !got2.Request || !got2.Triggered {
		t.Fatalf("combined flags = %+v", got2)
	}
}

// TestRequestOnStartAcceleratesConvergence: a router joining late with
// RequestOnStart learns the topology within a couple of seconds instead
// of waiting for its neighbors' periodic timers (up to 30 s).
func TestRequestOnStartAcceleratesConvergence(t *testing.T) {
	net := netsim.NewNetwork(21)
	a := net.NewNode("a", nil)
	b := net.NewNode("b", nil)
	late := net.NewNode("late", nil)
	net.NewLAN([]*netsim.Node{a, b, late}, netsim.LANConfig{})
	base := Config{Profile: RIP(), Jitter: jitter.HalfSpread{Tp: 30}, Seed: 1}
	agA := NewAgent(a, base)
	agB := NewAgent(b, base)
	agA.Start(1)
	agB.Start(2)
	net.RunUntil(100) // a and b converged long ago

	// The late router starts at t=100; its request draws immediate
	// responses. Its first own periodic timer is ~25 s away, and its
	// neighbors' next updates up to 30+ s away — yet it converges within
	// 2 s.
	cfgLate := base
	cfgLate.RequestOnStart = true
	agLate := NewAgent(late, cfgLate)
	agLate.Start(25)
	net.RunUntil(102)
	if r := agLate.Table().Get(a.ID); r == nil || r.Metric != 1 {
		t.Fatalf("late router did not learn a: %+v", r)
	}
	if r := agLate.Table().Get(b.ID); r == nil || r.Metric != 1 {
		t.Fatalf("late router did not learn b: %+v", r)
	}
	if agLate.Stats().RequestsSent != 1 {
		t.Fatalf("requests sent = %d", agLate.Stats().RequestsSent)
	}
	if agA.Stats().RequestsAnswered != 1 || agB.Stats().RequestsAnswered != 1 {
		t.Fatalf("answers = %d/%d", agA.Stats().RequestsAnswered, agB.Stats().RequestsAnswered)
	}
}

// TestWithoutRequestConvergenceIsSlow: the same scenario without the
// request leaves the late router ignorant until a neighbor's timer fires.
func TestWithoutRequestConvergenceIsSlow(t *testing.T) {
	net := netsim.NewNetwork(22)
	a := net.NewNode("a", nil)
	late := net.NewNode("late", nil)
	net.NewLAN([]*netsim.Node{a, late}, netsim.LANConfig{})
	// Give a a long-deterministic timer so its next update is far out.
	agA := NewAgent(a, Config{Profile: RIP(), Jitter: jitter.None{Tp: 30}, Seed: 2})
	agA.Start(1)
	net.RunUntil(10) // a sent its update at t=1; next at ~31
	agLate := NewAgent(late, Config{Profile: RIP(), Jitter: jitter.None{Tp: 30}, Seed: 3})
	agLate.Start(25)
	net.RunUntil(12)
	if r := agLate.Table().Get(a.ID); r != nil {
		t.Fatalf("late router learned a without any update: %+v", r)
	}
	net.RunUntil(40) // a's t=31 update arrives
	if r := agLate.Table().Get(a.ID); r == nil {
		t.Fatal("late router still ignorant after neighbor's periodic update")
	}
}

// TestRequestDoesNotResetResponderTimer: answering a request must not
// perturb the responder's periodic schedule (no timer reset).
func TestRequestDoesNotResetResponderTimer(t *testing.T) {
	net := netsim.NewNetwork(23)
	a := net.NewNode("a", nil)
	late := net.NewNode("late", nil)
	net.NewLAN([]*netsim.Node{a, late}, netsim.LANConfig{})
	var sends []float64
	agA := NewAgent(a, Config{Profile: RIP(), Jitter: jitter.None{Tp: 30}, Seed: 4})
	agA.OnSend = func(at float64, trig bool) { sends = append(sends, at) }
	agA.Start(1)
	cfg := Config{Profile: RIP(), Jitter: jitter.None{Tp: 30}, Seed: 5, RequestOnStart: true}
	agLate := NewAgent(late, cfg)
	agLate.Start(20)
	net.RunUntil(70)
	// agA's periodic sends at 1, 31, 61 plus the response at ~10... the
	// response shows as an extra send, but the periodic cadence must
	// stay anchored at 1 + k·30.
	var periodic []float64
	for _, s := range sends {
		if s == 1 || s == 31 || s == 61 {
			periodic = append(periodic, s)
		}
	}
	if len(periodic) != 3 {
		t.Fatalf("periodic cadence disturbed: sends = %v", sends)
	}
}
