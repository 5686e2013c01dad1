package netsim

import (
	"fmt"
	"reflect"
	"testing"
)

// TestCPUCompletionOrder pins the order in which CPU completions run:
// each OccupyThen item drains the input queue before its callback, items
// complete FIFO (same-instant and zero-cost ones included), and packets
// parked behind a stall dispatch as the drains reach them. The router r
// in h1 — r is the packets' destination, so a dispatch is the local
// delivery inside the draining event itself. Callbacks run from r's
// OnWork handler, which looks each item's callback up by its Aux.
func TestCPUCompletionOrder(t *testing.T) {
	type env struct {
		r    *Node
		then func(what string, next func()) Work
	}
	cases := []struct {
		name        string
		forwardCost float64
		packets     []float64 // injection times at h1, bound for r
		run         func(e env)
		want        []string
	}{
		{
			name:    "drain before callback",
			packets: []float64{1.1, 1.2},
			run: func(e env) {
				e.r.CPU.OccupyThen(0.5, e.then("A", nil))
			},
			want: []string{"p0@1.500", "p1@1.500", "A@1.500"},
		},
		{
			name: "zero cost on an idle CPU completes now",
			run: func(e env) {
				e.r.CPU.OccupyThen(0, e.then("A", nil))
				e.r.CPU.OccupyThen(0, e.then("B", nil))
			},
			want: []string{"A@1.000", "B@1.000"},
		},
		{
			name:    "FIFO across Occupy and same-instant completions",
			packets: []float64{1.1, 1.2},
			run: func(e env) {
				e.r.CPU.OccupyThen(0.5, e.then("A", nil))
				e.r.CPU.OccupyThen(0, e.then("B", nil))
				e.r.CPU.Occupy(0.2)
				e.r.CPU.OccupyThen(0, e.then("C", nil))
			},
			// A and B complete while Occupy's work is still queued, so
			// the packets wait for Occupy's completion at 1.7, which
			// runs before C's completion at the same instant.
			want: []string{"A@1.500", "B@1.500", "p0@1.700", "p1@1.700", "C@1.700"},
		},
		{
			name: "callbacks that occupy again queue behind pending work",
			run: func(e env) {
				e.r.CPU.OccupyThen(0.5, e.then("A", func() {
					e.r.CPU.OccupyThen(0, e.then("B", nil))
					e.r.CPU.OccupyThen(0.25, e.then("C", nil))
				}))
				e.r.CPU.OccupyThen(0.5, e.then("D", nil))
			},
			want: []string{"A@1.500", "D@2.000", "B@2.000", "C@2.250"},
		},
		{
			name:        "forward-cost drain interleaves with callbacks",
			forwardCost: 0.05,
			packets:     []float64{1.1, 1.2, 1.3},
			run: func(e env) {
				e.r.CPU.OccupyThen(0.5, e.then("A", func() {
					e.r.CPU.OccupyThen(0.1, e.then("B", nil))
				}))
			},
			// At 1.5 the drain starts p0's 50 ms forward cost before A
			// runs, so A's follow-up work B queues behind it; each
			// later drain starts the next packet before the completion
			// that triggered it dispatches its own.
			want: []string{"A@1.500", "p0@1.550", "B@1.650", "p1@1.700", "p2@1.750"},
		},
		{
			name:        "forward cost with an idle CPU dispatches in arrival order",
			forwardCost: 0.05,
			packets:     []float64{1.1, 1.1},
			run: func(e env) {
				e.r.CPU.OccupyThen(0.05, e.then("A", nil))
			},
			want: []string{"A@1.050", "p0@1.100", "p1@1.100"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := NewNetwork(61)
			nodes := n.BuildChain(
				[]string{"h1", "r"},
				[]*CPUConfig{nil, {InputQueueCap: 8, ForwardCost: tc.forwardCost}},
				LinkConfig{},
			)
			h1, r := nodes[0], nodes[1]
			var got []string
			log := func(what string) { got = append(got, fmt.Sprintf("%s@%.3f", what, n.Sim.Now())) }
			r.OnDeliver = map[Kind]func(*Packet){
				KindData: func(p *Packet) { log(fmt.Sprintf("p%d", p.Size)) },
			}
			var callbacks []func()
			r.OnWork = func(w Work) { callbacks[w.Aux]() }
			e := env{r: r, then: func(what string, next func()) Work {
				callbacks = append(callbacks, func() {
					log(what)
					if next != nil {
						next()
					}
				})
				return Work{Aux: uint64(len(callbacks) - 1), Kind: WorkPrepare}
			}}
			for i, at := range tc.packets {
				size := i
				n.Sim.Schedule(at, "inject", func() {
					n.Inject(n.NewPacket(KindData, h1.ID, r.ID, size))
				})
			}
			r.Schedule(1, "start", func() { tc.run(e) })
			n.RunUntil(10)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("order:\n got %v\nwant %v", got, tc.want)
			}
		})
	}
}

// TestCPUOccupyThenOneEvent checks that every work item, OccupyThen's or
// Occupy's, costs exactly one fired event, and that a warm OccupyThen
// cycle allocates nothing.
func TestCPUOccupyThenOneEvent(t *testing.T) {
	n := NewNetwork(62)
	r := n.NewNode("r", &CPUConfig{})
	calls := 0
	r.OnWork = func(Work) { calls++ }
	fn := Work{Kind: WorkPrepare}
	for i := 0; i < 5; i++ {
		r.CPU.OccupyThen(0.1, fn)
	}
	r.CPU.OccupyThen(0, fn)
	r.CPU.Occupy(0.1)
	n.RunUntil(10)
	if calls != 6 {
		t.Fatalf("callbacks ran %d times, want 6", calls)
	}
	if got := n.Sim.Counts().Fired; got != 7 {
		t.Fatalf("fired %d events for 6 OccupyThen + 1 Occupy, want 7", got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.CPU.OccupyThen(0.01, fn)
		r.CPU.OccupyThen(0.01, fn)
		n.RunUntil(n.Now() + 1)
	})
	if allocs != 0 {
		t.Fatalf("steady-state OccupyThen allocates %v per run", allocs)
	}
}
