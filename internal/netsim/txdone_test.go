package netsim

import (
	"fmt"
	"slices"
	"testing"
)

// A transmitter only reserves its tx-done event (see transmitter.done).
// These tests pin the instant serialization ends, now == doneAt, where a
// Transmit must find the transmitter busy or free exactly as a queued
// tx-done event would have left it. Each expected timeline was recorded
// from the implementation that queued every tx-done event.

// txBench is lo, a, b, hi (ids 0–3) with a medium between a and b: lo's
// events sort before every a-keyed tx-done at the same instant, hi's
// after. Packets go a → b and are told apart by size; b logs arrivals.
type txBench struct {
	n            *Network
	lo, a, b, hi *Node
	m            Medium
	tl           []string
}

func newTxBench(lan bool, bandwidth float64) *txBench {
	tb := &txBench{n: NewNetwork(1)}
	tb.lo = tb.n.NewNode("lo", nil)
	tb.a = tb.n.NewNode("a", nil)
	tb.b = tb.n.NewNode("b", nil)
	tb.hi = tb.n.NewNode("hi", nil)
	if lan {
		tb.m = tb.n.NewLAN([]*Node{tb.a, tb.b}, LANConfig{Delay: 0.1, Bandwidth: bandwidth, QueueCap: 1})
	} else {
		tb.m = tb.n.Connect(tb.a, tb.b, LinkConfig{Delay: 0.1, Bandwidth: bandwidth, QueueCap: 1})
	}
	tb.b.OnDeliver = map[Kind]func(*Packet){
		KindData: func(p *Packet) { tb.log("recv %d", p.Size) },
	}
	return tb
}

func (tb *txBench) log(format string, args ...any) {
	tb.tl = append(tb.tl, fmt.Sprintf("%.6f ", tb.b.Now())+fmt.Sprintf(format, args...))
}

// send transmits one packet per size from a, in order.
func (tb *txBench) send(sizes ...int) func() {
	return func() {
		for _, sz := range sizes {
			tb.a.SendOn(tb.m, tb.b.ID, tb.n.NewPacket(KindData, tb.a.ID, tb.b.ID, sz))
		}
	}
}

// finish runs to the end and appends the overflow drop count.
func (tb *txBench) finish() []string {
	tb.n.RunUntil(10)
	tb.log("drops %d", tb.n.Counters().Drops[DropQueueOverflow])
	return tb.tl
}

func TestTxDoneBoundary(t *testing.T) {
	// At 1 Mbit/s a 1000-byte packet serializes in 8 ms, so the packet a
	// sends at 0 has doneAt 0.008; the second and third packets sent at
	// that instant are queued or dropped (QueueCap 1) by whether the
	// transmitter is still busy.
	busy := []string{"0.108000 recv 1000", "0.116008 recv 1001", "10.000000 drops 1"}
	free := []string{"0.108000 recv 1000", "0.116008 recv 1001", "0.124024 recv 1002", "10.000000 drops 0"}
	// With zero serialization the tx-done falls at the sending instant:
	// a second Transmit in the same handler queues behind it.
	zeroBusy := []string{"1.100000 recv 1000", "1.100000 recv 1001", "10.000000 drops 1"}
	cases := []struct {
		name string
		lan  bool
		bw   float64
		run  func(tb *txBench)
		want []string
	}{
		{"keyed-before", false, 1e6, func(tb *txBench) {
			tb.a.Schedule(0, "send", tb.send(1000))
			tb.lo.Schedule(0.008, "send", tb.send(1001, 1002))
		}, busy},
		{"keyed-after", false, 1e6, func(tb *txBench) {
			tb.a.Schedule(0, "send", tb.send(1000))
			tb.hi.Schedule(0.008, "send", tb.send(1001, 1002))
		}, free},
		{"unkeyed", false, 1e6, func(tb *txBench) {
			tb.a.Schedule(0, "send", tb.send(1000))
			tb.n.Sim.Schedule(0.008, "send", tb.send(1001, 1002))
		}, busy},
		{"zero-serialization", false, 0, func(tb *txBench) {
			tb.hi.Schedule(1, "send", tb.send(1000, 1001, 1002))
		}, zeroBusy},
		{"zero-serialization-lower-key", false, 0, func(tb *txBench) {
			tb.lo.Schedule(1, "send", tb.send(1000, 1001, 1002))
		}, zeroBusy},
		{"lower-key-after-higher-fired", false, 1e6, func(tb *txBench) {
			tb.a.Schedule(0, "send", tb.send(1000))
			tb.hi.Schedule(0.008, "hop", func() { tb.lo.Schedule(0.008, "send", tb.send(1001, 1002)) })
		}, free},
		{"between-RunUntil-at-doneAt", false, 1e6, func(tb *txBench) {
			tb.a.Schedule(0, "send", tb.send(1000))
			tb.n.RunUntil(0.008)
			tb.send(1001, 1002)()
		}, free},
		{"between-RunUntil-before-doneAt", false, 1e6, func(tb *txBench) {
			tb.a.Schedule(0, "send", tb.send(1000))
			tb.n.RunUntil(0.007)
			tb.send(1001, 1002)()
		}, []string{"0.108000 recv 1000", "0.116008 recv 1001", "10.000000 drops 1"}},
		{"between-RunBefore", false, 1e6, func(tb *txBench) {
			tb.a.Schedule(0, "send", tb.send(1000))
			// The window stops short of doneAt: busy, and 1001 waits.
			tb.n.Sim.RunBefore(0.008)
			tb.send(1001, 1002)()
			// 1001 starts at 0.008 and its tx-done, reserved for
			// 0.016008, passes inside the next window with no event at
			// or after it: free again at 0.02.
			tb.n.Sim.RunBefore(0.02)
			tb.send(1003, 1004)()
		}, []string{"0.108000 recv 1000", "0.116008 recv 1001", "0.128024 recv 1003", "0.136056 recv 1004", "10.000000 drops 1"}},
		{"lan-keyed-before", true, 1e6, func(tb *txBench) {
			tb.a.Schedule(0, "send", tb.send(1000))
			tb.lo.Schedule(0.008, "send", tb.send(1001, 1002))
		}, busy},
		{"lan-keyed-after", true, 1e6, func(tb *txBench) {
			tb.a.Schedule(0, "send", tb.send(1000))
			tb.hi.Schedule(0.008, "send", tb.send(1001, 1002))
		}, free},
		{"lan-zero-serialization", true, 0, func(tb *txBench) {
			tb.hi.Schedule(1, "send", tb.send(1000, 1001, 1002))
		}, zeroBusy},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tb := newTxBench(c.lan, c.bw)
			c.run(tb)
			if got := tb.finish(); !slices.Equal(got, c.want) {
				t.Fatalf("timeline\n got %q\nwant %q", got, c.want)
			}
		})
	}
}
