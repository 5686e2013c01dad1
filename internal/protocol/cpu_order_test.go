package protocol

import (
	"fmt"
	"reflect"
	"testing"

	"routesync/internal/jitter"
	"routesync/internal/netsim"
	"routesync/internal/rng"
)

// rearmLog is a fixed-period jitter policy that logs every draw: the
// kernel draws a delay exactly when it re-arms the periodic timer.
type rearmLog struct {
	jitter.None
	log func(string)
}

func (p rearmLog) Delay(r *rng.Source, id int) float64 {
	p.log("rearm")
	return p.None.Delay(r, id)
}

// TestKernelCPUOrderAcrossReboot pins how a router CPU interleaves its
// three kinds of work — forward steps of parked data packets, the
// kernel's receive completions and its FinishSend preparations — across
// a Crash/Restart. Every completion drains the input queue before its
// own action; a prepare re-arms the timer only once the queue has
// drained; completions issued before the crash skip the Process hook and
// the re-arm yet still release their packet, and work of the new life
// queues behind them.
func TestKernelCPUOrderAcrossReboot(t *testing.T) {
	net := netsim.NewNetwork(63)
	nodes := net.BuildChain(
		[]string{"h1", "r"},
		[]*netsim.CPUConfig{nil, {InputQueueCap: 8, ForwardCost: 0.05}},
		netsim.LinkConfig{},
	)
	h1, r := nodes[0], nodes[1]
	var got []string
	log := func(what string) { got = append(got, fmt.Sprintf("%s@%.3f", what, net.Now())) }
	h := testHooks()
	h.Process = func(pkt *netsim.Packet, via netsim.Medium, aux uint64) { log(fmt.Sprintf("proc%d", aux)) }
	k := New(Config{
		Name:       "test",
		Node:       r,
		Jitter:     rearmLog{jitter.None{Tp: 100}, log},
		TimerLabel: "test-timer",
		RearmLabel: "test-rearm",
	}, h)

	recv := func(aux uint64, cost float64) {
		k.Process(net.NewPacket(netsim.KindRouting, r.ID, r.ID, 64), nil, aux, cost)
	}
	// Delivering p10 submits a receive from inside its forward step's
	// completion, after the drain has started p11's step: the receive
	// queues behind p11.
	r.OnDeliver = map[netsim.Kind]func(*netsim.Packet){
		netsim.KindData: func(p *netsim.Packet) {
			log(fmt.Sprintf("p%d", p.Size))
			if p.Size == 10 {
				recv(6, 0.01)
			}
		},
	}
	at := func(when float64, fn func()) { r.Schedule(when, "test", fn) }
	data := func(when float64, size int) {
		net.Sim.Schedule(when, "inject", func() {
			net.Inject(net.NewPacket(netsim.KindData, h1.ID, r.ID, size))
		})
	}
	pending := func() { log(fmt.Sprintf("pending%d", k.PendingPackets())) }

	// First life: a receive, a prepare and a zero-cost Occupy queue up
	// at 1.0 (the Occupy completes at the prepare's instant), a
	// zero-cost receive runs synchronously, and two data packets park
	// behind the stall.
	at(1, func() {
		recv(1, 0.5)
		k.FinishSend(0.2, true)
		r.CPU.Occupy(0)
		recv(2, 0)
		pending()
	})
	data(1.1, 10)
	data(1.2, 11)

	// Second life: a receive and a prepare are pending when the router
	// crashes (the parked data packet is dropped); the reboot queues a
	// receive, a prepare and a zero-cost Occupy behind the stale items,
	// and a packet arriving after the reboot parks behind them all.
	at(3, func() {
		recv(3, 0.5)
		k.FinishSend(0.3, true)
	})
	data(3.1, 12)
	at(3.2, func() {
		k.Crash()
		pending()
	})
	at(3.3, func() {
		k.Restart()
		recv(4, 0.1)
		k.FinishSend(0.1, true)
		r.CPU.Occupy(0)
		recv(5, 0)
		pending()
	})
	data(3.45, 13)
	at(3.6, pending)

	net.RunUntil(10)
	want := []string{
		"proc2@1.000", "pending1@1.000",
		"proc1@1.500",
		// The prepare's drain starts p10's forward cost, so its re-arm
		// waits for the queue: p11's step follows p10's, the receive
		// p10's delivery submitted follows p11's, and only then does the
		// timer re-arm.
		"p10@1.750", "p11@1.800", "proc6@1.810", "rearm@1.810",
		"pending1@3.200",
		"proc5@3.300", "pending2@3.300",
		"pending1@3.600",
		"proc4@3.900",
		"p13@4.050", "rearm@4.050",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order:\n got %q\nwant %q", got, want)
	}
	if k.PendingPackets() != 0 {
		t.Fatalf("PendingPackets = %d after drain, want 0", k.PendingPackets())
	}
	if live := net.LivePackets(); live != 0 {
		t.Fatalf("LivePackets = %d, want 0 (stale completions must release their packets)", live)
	}
	// 9 test and injection events, 8 link events for the four data
	// packets, 12 CPU completions and 3 re-arm waits.
	if fired := net.Sim.Counts().Fired; fired != 32 {
		t.Fatalf("fired %d events, want 32", fired)
	}
}
