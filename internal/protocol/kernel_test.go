package protocol

import (
	"math"
	"testing"

	"routesync/internal/jitter"
	"routesync/internal/netsim"
)

// testHooks returns a minimal valid hook set; fire/process default to
// no-ops the caller can override before New.
func testHooks() Hooks {
	return Hooks{
		Fire:    func() {},
		Receive: func(pkt *netsim.Packet, via netsim.Medium) {},
		Process: func(pkt *netsim.Packet, via netsim.Medium, aux uint64) {},
	}
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestKernelNewValidation(t *testing.T) {
	net := netsim.NewNetwork(1)
	node := net.NewNode("r0", nil)
	base := Config{Name: "test", Node: node, Jitter: jitter.None{Tp: 10}}

	mustPanic(t, "nil node", func() {
		cfg := base
		cfg.Node = nil
		New(cfg, testHooks())
	})
	mustPanic(t, "nil jitter", func() {
		cfg := base
		cfg.Jitter = nil
		New(cfg, testHooks())
	})
	mustPanic(t, "missing Fire", func() {
		h := testHooks()
		h.Fire = nil
		New(base, h)
	})
	mustPanic(t, "missing Receive", func() {
		h := testHooks()
		h.Receive = nil
		New(base, h)
	})
	mustPanic(t, "missing Process", func() {
		h := testHooks()
		h.Process = nil
		New(base, h)
	})
	mustPanic(t, "sweep interval without hook", func() {
		cfg := base
		cfg.SweepEvery = 30
		New(cfg, testHooks())
	})

	k := New(base, testHooks())
	mustPanic(t, "negative start offset", func() { k.StartTimer(-1) })
	mustPanic(t, "restart running agent", func() { k.Restart() })
}

// newTimerKernel builds a kernel whose Fire records expiry times and
// charges cost seconds of preparation CPU.
func newTimerKernel(tp, cost float64) (*netsim.Network, *Kernel, *[]float64) {
	net := netsim.NewNetwork(1)
	node := net.NewNode("r0", &netsim.CPUConfig{InputQueueCap: 4})
	fires := &[]float64{}
	var k *Kernel
	h := testHooks()
	h.Fire = func() {
		*fires = append(*fires, node.Now())
		k.FinishSend(cost, true)
	}
	k = New(Config{
		Name:       "test",
		Node:       node,
		Jitter:     jitter.None{Tp: tp},
		TimerLabel: "test-timer",
		RearmLabel: "test-rearm",
	}, h)
	return net, k, fires
}

func TestKernelTimerModes(t *testing.T) {
	// The timer re-arms from the CPU drain, not from the expiry, so the
	// processing drift accumulates — the paper's §3 coupling. Tp=10 with
	// preparation cost 0.5 drifts half a second a round; Tp=0.2 with
	// cost 1.0 (processing outlasts the period) fires Tp after each drain,
	// never while the CPU is still busy.
	cases := []struct {
		tp, cost, until float64
		want            []float64
	}{
		{10, 0.5, 25, []float64{1, 11.5, 22}},
		{0.2, 1.0, 3, []float64{1, 2.2}},
	}
	for _, c := range cases {
		net, k, fires := newTimerKernel(c.tp, c.cost)
		k.StartTimer(1)
		net.RunUntil(c.until)
		if len(*fires) != len(c.want) {
			t.Fatalf("Tp %g cost %g: %d fires %v, want %d", c.tp, c.cost, len(*fires), *fires, len(c.want))
		}
		for i, w := range c.want {
			if got := (*fires)[i]; got != w {
				t.Fatalf("Tp %g cost %g: fire #%d at %g, want %g", c.tp, c.cost, i, got, w)
			}
		}
		if k.TimerResets() == 0 {
			t.Fatalf("Tp %g cost %g: TimerResets not counted", c.tp, c.cost)
		}
	}
}

func TestKernelStopInvalidatesPendingWork(t *testing.T) {
	net := netsim.NewNetwork(1)
	node := net.NewNode("r0", &netsim.CPUConfig{InputQueueCap: 4})
	processed := false
	h := testHooks()
	h.Process = func(pkt *netsim.Packet, via netsim.Medium, aux uint64) { processed = true }
	k := New(Config{Name: "test", Node: node, Jitter: jitter.None{Tp: 10}}, h)

	pkt := net.NewPacket(netsim.KindRouting, node.ID, node.ID, 64)
	node.Schedule(1, "test-arrival", func() { k.Process(pkt, nil, 7, 0.5) })
	node.Schedule(1.2, "test-stop", func() { k.Stop() })
	net.RunUntil(5)

	// The CPU completion at t=1.5 ran under a stale generation: the hook
	// must be skipped, but the parked packet still released.
	if processed {
		t.Fatal("stale CPU completion reached the Process hook after Stop")
	}
	if k.PendingPackets() != 0 {
		t.Fatalf("PendingPackets = %d after drain, want 0", k.PendingPackets())
	}
	if net.LivePackets() != 0 {
		t.Fatalf("LivePackets = %d, want 0 (kernel must release stale packets)", net.LivePackets())
	}
	if !k.Stopped() || k.gen != 1 {
		t.Fatalf("Stopped=%v gen=%d, want stopped at generation 1", k.Stopped(), k.gen)
	}
}

func TestKernelProcessSynchronousWithoutCPU(t *testing.T) {
	net := netsim.NewNetwork(1)
	node := net.NewNode("h0", nil)
	var gotAux uint64
	h := testHooks()
	h.Process = func(pkt *netsim.Packet, via netsim.Medium, aux uint64) { gotAux = aux }
	k := New(Config{Name: "test", Node: node, Jitter: jitter.None{Tp: 10}}, h)

	pkt := net.NewPacket(netsim.KindRouting, node.ID, node.ID, 64)
	k.Process(pkt, nil, 42, 0.5)
	if gotAux != 42 {
		t.Fatalf("aux = %d, want 42 (synchronous path without CPU)", gotAux)
	}
	if net.LivePackets() != 0 {
		t.Fatalf("LivePackets = %d, want 0 after synchronous Process", net.LivePackets())
	}
}

func TestKernelCrashRestart(t *testing.T) {
	net := netsim.NewNetwork(1)
	node := net.NewNode("r0", &netsim.CPUConfig{InputQueueCap: 4})
	resets, restarts := 0, 0
	h := testHooks()
	h.ResetVolatile = func() { resets++ }
	h.Restarted = func() { restarts++ }
	k := New(Config{Name: "test", Node: node, Jitter: jitter.None{Tp: 10}}, h)
	k.StartTimer(0)
	peer := net.NewNode("r1", nil)
	node.SetRoute(99, net.Connect(node, peer, netsim.LinkConfig{}), peer.ID)

	k.Crash()
	if eg, ok := node.Route(99); ok {
		t.Fatalf("FIB routes to 99 via %v after Crash, want no entry", eg)
	}
	if resets != 1 {
		t.Fatalf("ResetVolatile called %d times, want 1", resets)
	}
	if !node.Failed() || !k.Stopped() {
		t.Fatalf("Failed=%v Stopped=%v after Crash, want both true", node.Failed(), k.Stopped())
	}
	if node.OnRouting != nil {
		t.Fatal("receive hook still installed after Crash")
	}

	k.Restart()
	if node.Failed() || k.Stopped() {
		t.Fatalf("Failed=%v Stopped=%v after Restart, want both false", node.Failed(), k.Stopped())
	}
	if restarts != 1 {
		t.Fatalf("Restarted called %d times, want 1", restarts)
	}
	if node.OnRouting == nil {
		t.Fatal("receive hook not reinstalled by Restart")
	}
	// The new life runs under a fresh generation.
	if k.gen != 1 {
		t.Fatalf("gen = %d after one reboot, want 1", k.gen)
	}
}

// TestKernelStopPanicsOnGenerationWrap checks that the 32-bit agent
// generation CPU work records carry never wraps: a wrapped Stop would
// let work from 2^32 lives ago pass as current.
func TestKernelStopPanicsOnGenerationWrap(t *testing.T) {
	net := netsim.NewNetwork(1)
	k := New(Config{Name: "test", Node: net.NewNode("r0", nil), Jitter: jitter.None{Tp: 10}}, testHooks())
	k.gen = math.MaxUint32 - 1
	k.Stop()
	k.Restart()
	mustPanic(t, "generation wrap", k.Stop)
}
