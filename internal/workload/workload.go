// Package workload provides the traffic generators and recorders behind
// the paper's measurements: a pinger replicating the May-1992 Berkeley→MIT
// experiment (1000 echoes at 1.01-second intervals, Figure 1) and a
// constant-bit-rate audio stream replicating the November-1992 audiocast
// whose 30-second periodic outages appear in Figure 3.
package workload

import (
	"math"

	"routesync/internal/netsim"
	"routesync/internal/stats"
)

// PingConfig parameterizes a ping run.
type PingConfig struct {
	// Interval between echo requests in seconds (paper: 1.01 — chosen
	// off 1.00 so the pings themselves do not synchronize with
	// whole-second periodic processes).
	Interval float64
	// Count of echo requests to send (paper: 1000).
	Count int
	// Timeout after which an unanswered echo counts as lost; zero means
	// Interval.
	Timeout float64
	// Size of each echo packet in bytes; zero means 64.
	Size int
}

// PingResult holds a completed run. RTTs[i] is the round-trip time of
// ping i in seconds, or NaN if it was lost.
type PingResult struct {
	Sent int
	RTTs []float64
}

// Lost returns the number of lost pings.
func (r PingResult) Lost() int {
	lost := 0
	for _, v := range r.RTTs {
		if math.IsNaN(v) {
			lost++
		}
	}
	return lost
}

// LossRate returns the fraction of pings lost.
func (r PingResult) LossRate() float64 {
	if r.Sent == 0 {
		return 0
	}
	return float64(r.Lost()) / float64(r.Sent)
}

// RTTQuantile returns the q-quantile of the successful RTTs, or NaN when
// every ping was lost.
func (r PingResult) RTTQuantile(q float64) float64 {
	var ok []float64
	for _, v := range r.RTTs {
		if !math.IsNaN(v) {
			ok = append(ok, v)
		}
	}
	return stats.Quantile(ok, q)
}

// RTTsFilled returns the RTT series with losses replaced by v — the
// paper's Figure 2 assigns dropped packets a round-trip time of two
// seconds before computing the autocorrelation.
func (r PingResult) RTTsFilled(v float64) []float64 {
	out := make([]float64, len(r.RTTs))
	for i, x := range r.RTTs {
		if math.IsNaN(x) {
			out[i] = v
		} else {
			out[i] = x
		}
	}
	return out
}

// InstallEchoResponder makes node answer echo requests: each request is
// turned around as an echo reply to its source, preserving Seq.
func InstallEchoResponder(node *netsim.Node) {
	if node.OnDeliver == nil {
		node.OnDeliver = make(map[netsim.Kind]func(*netsim.Packet))
	}
	net := node.Net()
	node.OnDeliver[netsim.KindEchoRequest] = func(pkt *netsim.Packet) {
		reply := net.NewPacket(netsim.KindEchoReply, node.ID, pkt.Src, pkt.Size)
		reply.Seq = pkt.Seq
		net.Inject(reply)
	}
}

// Pinger runs one ping experiment between two nodes.
type Pinger struct {
	net  *netsim.Network
	src  *netsim.Node
	dst  *netsim.Node
	cfg  PingConfig
	sent []float64 // send time per seq
	rtt  []float64
}

// NewPinger wires a pinger from src to dst: the echo responder is
// installed on dst and the reply handler on src. It panics on invalid
// config.
func NewPinger(src, dst *netsim.Node, cfg PingConfig) *Pinger {
	if cfg.Interval <= 0 || cfg.Count <= 0 {
		panic("workload: ping interval and count must be positive")
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = cfg.Interval
	}
	if cfg.Size == 0 {
		cfg.Size = 64
	}
	p := &Pinger{
		net:  src.Net(),
		src:  src,
		dst:  dst,
		cfg:  cfg,
		sent: make([]float64, cfg.Count),
		rtt:  make([]float64, cfg.Count),
	}
	for i := range p.rtt {
		p.rtt[i] = math.NaN()
	}
	InstallEchoResponder(dst)
	if src.OnDeliver == nil {
		src.OnDeliver = make(map[netsim.Kind]func(*netsim.Packet))
	}
	src.OnDeliver[netsim.KindEchoReply] = func(pkt *netsim.Packet) {
		seq := int(pkt.Seq)
		if seq < 0 || seq >= cfg.Count {
			return
		}
		t := p.src.Now() - p.sent[seq]
		if t <= cfg.Timeout && math.IsNaN(p.rtt[seq]) {
			p.rtt[seq] = t
		}
	}
	return p
}

// Start schedules the whole run beginning at the given absolute time.
func (p *Pinger) Start(at float64) {
	for i := 0; i < p.cfg.Count; i++ {
		i := i
		when := at + float64(i)*p.cfg.Interval
		p.src.Schedule(when, "ping", func() {
			p.sent[i] = p.src.Now()
			pkt := p.net.NewPacket(netsim.KindEchoRequest, p.src.ID, p.dst.ID, p.cfg.Size)
			pkt.Seq = int64(i)
			p.net.Inject(pkt)
		})
	}
}

// Result returns the run's outcome; call it after the simulation has run
// past the last ping plus its timeout.
func (p *Pinger) Result() PingResult {
	return PingResult{Sent: p.cfg.Count, RTTs: append([]float64(nil), p.rtt...)}
}
