package workload

import (
	"math"
	"testing"

	"routesync/internal/netsim"
	"routesync/internal/rng"
)

// PoissonConfig parameterizes background cross-traffic: packets injected
// from src to dst with exponential inter-arrival times. The paper's
// measured paths carried real Internet traffic under the pings and the
// audio; Poisson traffic is the standard stand-in for that load. No
// experiment injects it, so the source lives here with its tests.
type PoissonConfig struct {
	// Rate is the mean packets per second.
	Rate float64
	// Size is bytes per packet; zero means 512.
	Size int
	// Duration of the flow in seconds.
	Duration float64
	// Seed drives the arrival process.
	Seed int64
}

// PoissonSource injects the flow and counts deliveries at the sink.
type PoissonSource struct {
	net      *netsim.Network
	src, dst *netsim.Node
	cfg      PoissonConfig
	r        *rng.Source
	sent     uint64
	received uint64
	stopAt   float64
}

// NewPoissonSource wires the flow; Start schedules it. It panics on
// invalid config.
func NewPoissonSource(src, dst *netsim.Node, cfg PoissonConfig) *PoissonSource {
	if cfg.Rate <= 0 || cfg.Duration <= 0 {
		panic("workload: poisson rate and duration must be positive")
	}
	if cfg.Size == 0 {
		cfg.Size = 512
	}
	p := &PoissonSource{
		net: src.Net(),
		src: src,
		dst: dst,
		cfg: cfg,
		r:   rng.New(cfg.Seed),
	}
	if dst.OnDeliver == nil {
		dst.OnDeliver = make(map[netsim.Kind]func(*netsim.Packet))
	}
	prev := dst.OnDeliver[netsim.KindData]
	dst.OnDeliver[netsim.KindData] = func(pkt *netsim.Packet) {
		if pkt.Src == src.ID {
			p.received++
			return
		}
		if prev != nil {
			prev(pkt)
		}
	}
	return p
}

// Start begins the arrival process at the given absolute time.
func (p *PoissonSource) Start(at float64) {
	p.stopAt = at + p.cfg.Duration
	p.src.Schedule(at+p.r.Exponential(1/p.cfg.Rate), "poisson-arrival", p.tick)
}

func (p *PoissonSource) tick() {
	now := p.src.Now()
	if now >= p.stopAt {
		return
	}
	pkt := p.net.NewPacket(netsim.KindData, p.src.ID, p.dst.ID, p.cfg.Size)
	p.net.Inject(pkt)
	p.sent++
	p.src.After(p.r.Exponential(1/p.cfg.Rate), "poisson-arrival", p.tick)
}

// Sent returns the packets injected so far.
func (p *PoissonSource) Sent() uint64 { return p.sent }

// Received returns the packets delivered at the sink so far.
func (p *PoissonSource) Received() uint64 { return p.received }

// LossRate returns the fraction of injected packets not (yet) delivered.
func (p *PoissonSource) LossRate() float64 {
	if p.sent == 0 {
		return 0
	}
	return float64(p.sent-p.received) / float64(p.sent)
}

func TestPoissonRate(t *testing.T) {
	n, nodes := pingPath(20, nil)
	p := NewPoissonSource(nodes[0], nodes[2], PoissonConfig{Rate: 100, Duration: 100, Seed: 1})
	p.Start(0)
	n.RunUntil(200)
	sent := float64(p.Sent())
	if math.Abs(sent-10000)/10000 > 0.05 {
		t.Fatalf("sent %v packets in 100 s at 100 pps, want ~10000", sent)
	}
	if p.Received() != p.Sent() {
		t.Fatalf("lossless path lost packets: %d/%d", p.Received(), p.Sent())
	}
	if p.LossRate() != 0 {
		t.Fatalf("loss rate = %v", p.LossRate())
	}
}

func TestPoissonInterArrivalDistribution(t *testing.T) {
	// The arrival count in disjoint 1-second windows should have
	// variance ≈ mean (Poisson property). A crude index-of-dispersion
	// check guards against accidentally-regular arrivals.
	n := netsim.NewNetwork(2)
	nodes := n.BuildChain([]string{"a", "b"}, nil, netsim.LinkConfig{})
	var windows []int
	count := 0
	next := 1.0
	nodes[1].OnDeliver = map[netsim.Kind]func(*netsim.Packet){}
	p := NewPoissonSource(nodes[0], nodes[1], PoissonConfig{Rate: 20, Duration: 200, Seed: 3})
	// wrap the existing handler to bin arrivals by time
	inner := nodes[1].OnDeliver[netsim.KindData]
	nodes[1].OnDeliver[netsim.KindData] = func(pkt *netsim.Packet) {
		for n.Sim.Now() >= next {
			windows = append(windows, count)
			count = 0
			next++
		}
		count++
		if inner != nil {
			inner(pkt)
		}
	}
	p.Start(0)
	n.RunUntil(250)
	if len(windows) < 150 {
		t.Fatalf("too few windows: %d", len(windows))
	}
	var sum, sumSq float64
	for _, c := range windows {
		sum += float64(c)
		sumSq += float64(c) * float64(c)
	}
	mean := sum / float64(len(windows))
	variance := sumSq/float64(len(windows)) - mean*mean
	dispersion := variance / mean
	if dispersion < 0.7 || dispersion > 1.4 {
		t.Fatalf("index of dispersion = %v, want ~1 (Poisson)", dispersion)
	}
}

func TestPoissonLossThroughBusyRouter(t *testing.T) {
	n, nodes := pingPath(4, &netsim.CPUConfig{Mode: netsim.CPUModeLegacy})
	p := NewPoissonSource(nodes[0], nodes[2], PoissonConfig{Rate: 200, Duration: 30, Seed: 4})
	p.Start(0)
	// Stall the router for 3 of the 30 seconds: ~10% loss expected.
	n.Sim.Schedule(10, "occupy", func() { nodes[1].CPU.Occupy(3) })
	n.RunUntil(60)
	loss := p.LossRate()
	if loss < 0.05 || loss > 0.15 {
		t.Fatalf("loss rate = %v, want ~0.10", loss)
	}
	// Per-node accounting: the router dropped them.
	st := nodes[1].Stats()
	if st.Dropped[netsim.DropCPUBusy] == 0 {
		t.Fatal("router stats show no cpu-busy drops")
	}
}

func TestPoissonChainsWithExistingHandler(t *testing.T) {
	// A Poisson sink must not clobber another flow's delivery handler.
	n, nodes := pingPath(5, nil)
	got := 0
	nodes[2].OnDeliver = map[netsim.Kind]func(*netsim.Packet){
		netsim.KindData: func(pkt *netsim.Packet) { got++ },
	}
	other := n.NewNode("other", nil)
	n.Connect(other, nodes[1], netsim.LinkConfig{})
	n.InstallStaticRoutes()
	p := NewPoissonSource(other, nodes[2], PoissonConfig{Rate: 50, Duration: 10, Seed: 5})
	p.Start(0)
	// A data packet from the original src must still reach the old handler.
	n.Sim.Schedule(1, "inject", func() {
		n.Inject(n.NewPacket(netsim.KindData, nodes[0].ID, nodes[2].ID, 100))
	})
	n.RunUntil(30)
	if got != 1 {
		t.Fatalf("existing handler starved: got %d", got)
	}
	if p.Received() == 0 {
		t.Fatal("poisson sink got nothing")
	}
}

func TestPoissonValidation(t *testing.T) {
	n := netsim.NewNetwork(6)
	nodes := n.BuildChain([]string{"a", "b"}, nil, netsim.LinkConfig{})
	for _, cfg := range []PoissonConfig{
		{Rate: 0, Duration: 10},
		{Rate: 10, Duration: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid poisson config did not panic")
				}
			}()
			NewPoissonSource(nodes[0], nodes[1], cfg)
		}()
	}
}

func TestNodeStatsCounters(t *testing.T) {
	n, nodes := pingPath(7, nil)
	p := NewPinger(nodes[0], nodes[2], PingConfig{Interval: 1, Count: 10})
	p.Start(0)
	n.RunUntil(30)
	mid := nodes[1].Stats()
	// The transit router forwarded 10 requests and 10 replies.
	if mid.ForwardedOut != 20 {
		t.Fatalf("router forwarded %d, want 20", mid.ForwardedOut)
	}
	if mid.DeliveredLocal != 0 {
		t.Fatalf("router delivered %d locally", mid.DeliveredLocal)
	}
	dst := nodes[2].Stats()
	if dst.DeliveredLocal != 10 || dst.Received != 10 {
		t.Fatalf("dst stats = %+v", dst)
	}
	src := nodes[0].Stats()
	if src.DeliveredLocal != 10 {
		t.Fatalf("src delivered %d replies", src.DeliveredLocal)
	}
}
