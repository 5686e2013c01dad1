// Package scenarios implements the paper's §1 catalogue of
// synchronization mechanisms beyond periodic routing messages: the
// client–server convoy (the Sprite file-server anecdote [Ba92]) and
// synchronization to an external clock (the DECnet/ftp traffic peaks
// [Pa93a]). Both run on the internal/des kernel and expose the same
// phase metrics as the routing model, demonstrating that the paper's
// clustering mathematics is not specific to routing.
package scenarios

import (
	"math"
	"sort"

	"routesync/internal/des"
	"routesync/internal/rng"
)

// ClientServerConfig parameterizes the Sprite-like polling scenario:
// N clients poll one server every Tp ± Tr seconds; the server serves
// requests FIFO at Tc seconds each; a client re-arms its poll timer only
// when its response arrives. Server queueing therefore couples the
// clients exactly the way routing-message processing couples routers.
type ClientServerConfig struct {
	N  int
	Tp float64
	Tr float64
	Tc float64
	// Seed drives all randomness.
	Seed int64
}

// Defaults fills zero fields with the Sprite numbers from the paper: 30 s
// polls; service cost chosen so a full convoy is visible.
func (c ClientServerConfig) Defaults() ClientServerConfig {
	if c.N == 0 {
		c.N = 20
	}
	if c.Tp == 0 {
		c.Tp = 30
	}
	if c.Tr == 0 {
		c.Tr = 0.05
	}
	if c.Tc == 0 {
		c.Tc = 0.1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ClientServer is a running instance. It is not safe for concurrent use.
type ClientServer struct {
	cfg ClientServerConfig
	sim *des.Simulator
	r   *rng.Source

	serverBusyUntil float64
	serverDownUntil float64
	pending         []int // client ids queued while the server is down

	// lastPoll[i] is the time client i last sent a request.
	lastPoll []float64
	// BusyRuns records, for each finished server busy period, how many
	// requests it served back to back — the convoy size distribution;
	// busyRunCount is the current period's count so far.
	busyRunCount int
	BusyRuns     []int
}

// NewClientServer builds and starts the scenario; client phases start
// uniformly spread over one period.
func NewClientServer(cfg ClientServerConfig) *ClientServer {
	cfg = cfg.Defaults()
	if cfg.N < 1 || cfg.Tp <= 0 || cfg.Tr < 0 || cfg.Tc < 0 {
		panic("scenarios: invalid client-server config")
	}
	cs := &ClientServer{
		cfg:      cfg,
		sim:      des.New(),
		r:        rng.New(cfg.Seed),
		lastPoll: make([]float64, cfg.N),
	}
	for i := 0; i < cfg.N; i++ {
		i := i
		cs.sim.Schedule(cs.r.Uniform(0, cfg.Tp), "first-poll", func() { cs.poll(i) })
	}
	return cs
}

// Sim exposes the simulator for scheduling failures in tests/examples.
func (cs *ClientServer) Sim() *des.Simulator { return cs.sim }

// poll is client i's timer expiring: send a request to the server.
func (cs *ClientServer) poll(i int) {
	now := cs.sim.Now()
	cs.lastPoll[i] = now
	if now < cs.serverDownUntil {
		// The server is down: the request waits; Sprite-style recovery
		// serves the backlog at once when the server returns.
		cs.pending = append(cs.pending, i)
		return
	}
	cs.serve(i)
}

// serve enqueues client i's request at the server FIFO.
func (cs *ClientServer) serve(i int) {
	now := cs.sim.Now()
	start := math.Max(now, cs.serverBusyUntil)
	if cs.busyRunCount > 0 && cs.serverBusyUntil <= now {
		// The server was idle: a new busy run begins.
		cs.BusyRuns = append(cs.BusyRuns, cs.busyRunCount)
		cs.busyRunCount = 0
	}
	cs.busyRunCount++
	done := start + cs.cfg.Tc
	cs.serverBusyUntil = done
	cs.sim.Schedule(done, "response", func() { cs.respond(i) })
}

// respond delivers the response: the client re-arms its poll timer from
// *now* — the coupling that builds convoys.
func (cs *ClientServer) respond(i int) {
	delay := cs.r.Uniform(cs.cfg.Tp-cs.cfg.Tr, cs.cfg.Tp+cs.cfg.Tr)
	cs.sim.After(delay, "poll", func() { cs.poll(i) })
}

// FailServer takes the server down for the given duration starting now;
// requests arriving meanwhile are queued and served back to back at
// recovery — the Sprite recovery storm.
func (cs *ClientServer) FailServer(duration float64) {
	now := cs.sim.Now()
	cs.serverDownUntil = now + duration
	if cs.serverBusyUntil < cs.serverDownUntil {
		cs.serverBusyUntil = cs.serverDownUntil
	}
	cs.sim.Schedule(cs.serverDownUntil, "server-recovery", func() {
		backlog := cs.pending
		cs.pending = nil
		for _, i := range backlog {
			cs.serve(i)
		}
	})
}

// RunUntil advances the scenario.
func (cs *ClientServer) RunUntil(t float64) {
	cs.sim.RunUntil(t)
	// Flush a completed busy run so metrics are current.
	if cs.busyRunCount > 0 && cs.serverBusyUntil <= cs.sim.Now() {
		cs.BusyRuns = append(cs.BusyRuns, cs.busyRunCount)
		cs.busyRunCount = 0
	}
}

// LargestConvoy partitions the clients' last poll times with the same
// fixed-point busy-window rule as the routing model and returns the
// largest group — clients whose polls land inside one server busy run.
func (cs *ClientServer) LargestConvoy() int {
	polls := append([]float64(nil), cs.lastPoll...)
	sort.Float64s(polls)
	largest, k := 1, 1
	start := polls[0]
	for i := 1; i < len(polls); i++ {
		if polls[i] < start+float64(k)*cs.cfg.Tc {
			k++
			if k > largest {
				largest = k
			}
			continue
		}
		start, k = polls[i], 1
	}
	return largest
}

// OrderParameter is the Kuramoto coherence of the clients' poll phases
// over one nominal period.
func (cs *ClientServer) OrderParameter() float64 {
	window := cs.cfg.Tp + cs.cfg.Tc
	var re, im float64
	for _, t := range cs.lastPoll {
		phase := 2 * math.Pi * math.Mod(t, window) / window
		re += math.Cos(phase)
		im += math.Sin(phase)
	}
	return math.Hypot(re, im) / float64(cs.cfg.N)
}
