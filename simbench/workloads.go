package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"routesync/internal/cluster"
	"routesync/internal/des"
	"routesync/internal/experiments"
	"routesync/internal/jitter"
	"routesync/internal/markov"
	"routesync/internal/netsim"
	"routesync/internal/pathvector"
	"routesync/internal/periodic"
	"routesync/internal/routing"
	"routesync/internal/workload"
)

// workloadRunner is one benchmark workload. measure runs the untraced
// loop and fills the end-to-end metrics; trace runs the same loop (for
// the untraced baseline) and then the traced passes, filling the
// per-layer metrics.
type workloadRunner interface {
	measure(seed int64, budget time.Duration, rep *report)
	trace(seed int64, budget time.Duration, rep *report, sp *spans)
}

// workloads holds the benchmark's workloads at their benchmark sizes;
// README.md gives the reason for each.
var workloads = map[string]workloadRunner{
	"rip_scale":    &packetWorkload{name: "rip_scale", build: ripScale(5000, 25, 150)},
	"bgp_mrai":     &bgpWorkload{ases: 5000, mrai: 5, horizon: 160},
	"metro_lan":    &packetWorkload{name: "metro_lan", build: metroLAN(32, 6, 300)},
	"model_largen": &modelWorkload{cases: modelCases(1000, 5000, 100000, 50)},
}

const (
	// modelSetupReps is how many extra set-ups model_largen times for its
	// median set-up time: its loop has few set-ups, each a few ms.
	modelSetupReps = 20
	// maxRecorded caps the DES operations recorded for replay.
	maxRecorded = 3_000_000
)

// loop calls iter until budget has elapsed, at least once.
func loop(budget time.Duration, iter func()) {
	start := time.Now()
	for first := true; first || time.Since(start) < budget; first = false {
		iter()
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuSeconds is the process's user+sys CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// liveHeapMB forces a collection and returns the live heap in MB, with
// keep still reachable.
func liveHeapMB(keep any) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	return float64(ms.HeapAlloc) / 1e6
}

// timed runs fn and returns its wall time in seconds.
func timed(fn func()) float64 {
	wall, _ := timedCPU(fn)
	return wall
}

// timedCPU first collects the garbage earlier work left, so that no
// timed section pays for another's, then runs fn and returns its wall
// and process CPU time in seconds.
func timedCPU(fn func()) (wall, cpu float64) {
	runtime.GC()
	c0 := cpuSeconds()
	t0 := time.Now()
	fn()
	return time.Since(t0).Seconds(), cpuSeconds() - c0
}

// allocCounter counts heap allocations between start and stop.
type allocCounter struct {
	mallocs, bytes uint64
	count, mb      float64 // the result of stop
}

func (a *allocCounter) start() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	a.mallocs, a.bytes = ms.Mallocs, ms.TotalAlloc
}

func (a *allocCounter) stop() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	a.count, a.mb = float64(ms.Mallocs-a.mallocs), float64(ms.TotalAlloc-a.bytes)/1e6
}

// loopTimes are the untraced loop's per-iteration samples, and the run
// time of the K=1 reference for workloads that have one.
type loopTimes struct {
	setup, run, cpu []float64
	allocs, allocMB []float64 // heap allocations of each run
	k1Run           float64
}

func (l *loopTimes) fill(rep *report) {
	rep.values["run_s"] = median(l.run)
	rep.values["setup_s"] = median(l.setup)
	rep.values["cpu_s"] = median(l.cpu)
	rep.samples = append(rep.samples, sampleLine("run_s", l.run), sampleLine("setup_s", l.setup), sampleLine("cpu_s", l.cpu))
}

// setLayers fills the per-layer metrics the untraced loop measured.
func (l *loopTimes) setLayers(rep *report) {
	v := rep.values
	v["netsim.run_allocs"] = median(l.allocs)
	v["netsim.run_alloc_mb"] = median(l.allocMB)
	v["netsim.sync.k1_run_s"] = l.k1Run
	if r := median(l.run); r > 0 {
		v["netsim.sync.speedup_k2"] = l.k1Run / r
	}
}

// sampleLine summarizes one metric's samples: count, then min, median
// and max.
func sampleLine(name string, xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return name + " no samples"
	}
	return fmt.Sprintf("%s %d samples: min %.6g median %.6g max %.6g all %.4g", name, len(s), s[0], median(s), s[len(s)-1], xs)
}

// hashOf folds printed values into a digest. fmt prints floats in their
// shortest exact form and map keys sorted, so equal values hash equal.
func hashOf(print func(w io.Writer)) uint64 {
	h := fnv.New64a()
	print(h)
	return h.Sum64()
}

func checkDigest(got, want uint64) error {
	if got != want {
		return fmt.Errorf("result digest %016x differs from the reference %016x", got, want)
	}
	return nil
}

// windowed runs nw to horizon in one-simulated-second RunUntil calls,
// recording each call's wall time in h and as a span under parent, with
// the tracer's coordinator rounds nested in it. It returns the total
// wall time in seconds.
func windowed(nw *netsim.Network, horizon float64, tr *tracer, h *hist, parent int) float64 {
	total := time.Duration(0)
	for t := nw.Now() + 1; ; t++ {
		if t > horizon {
			t = horizon
		}
		ws := tr.sp.begin("netsim.window", parent)
		tr.parent = ws
		tr.last = tr.sp.now()
		t0 := time.Now()
		nw.RunUntil(t)
		d := time.Since(t0)
		tr.sp.end(ws)
		total += d
		h.add(uint64(d))
		if t >= horizon {
			return total.Seconds()
		}
	}
}

// setNetsim fills the netsim and des per-layer metrics of a traced
// partitioned run (several for bgp_mrai's two cells, summed).
func setNetsim(rep *report, nets []*netsim.Network, simSeconds float64, tr *tracer, windows *hist) {
	var windowsRun, rollbacks uint64
	var fwd, dlv, dq, dc, live uint64
	for _, nw := range nets {
		st := nw.SyncStats()
		windowsRun += st.Windows
		rollbacks += st.Rollbacks
		c := nw.Counters()
		fwd += c.Forwarded
		dlv += c.Delivered
		dq += c.Drops[netsim.DropQueueOverflow]
		dc += c.Drops[netsim.DropCPUBusy]
		live += uint64(nw.LivePackets())
		rep.values["netsim.sync.lookahead_s"] = nw.Lookahead()
	}
	fired := tr.fired.Load()
	v := rep.values
	v["des.events_fired"] = float64(fired)
	v["des.events_scheduled"] = float64(tr.scheduled.Load())
	v["des.events_cancelled"] = float64(tr.cancelled.Load())
	v["des.queue_peak_depth"] = float64(tr.peakDepth.Load())
	v["netsim.window_ms_p50"] = windows.quantile(0.5) / 1e6
	v["netsim.window_ms_p90"] = windows.quantile(0.9) / 1e6
	v["netsim.forwarded"] = float64(fwd)
	v["netsim.delivered"] = float64(dlv)
	v["netsim.drops_queue"] = float64(dq)
	v["netsim.drops_cpu"] = float64(dc)
	v["netsim.live_packets_end"] = float64(live)
	v["netsim.sync.windows"] = float64(windowsRun)
	v["netsim.sync.windows_per_sim_s"] = float64(windowsRun) / simSeconds
	if windowsRun > 0 {
		v["netsim.sync.events_per_window"] = float64(fired) / float64(windowsRun)
	}
	v["netsim.sync.rollbacks"] = float64(rollbacks)
	v["netsim.sync.round_us_p50"] = tr.rounds.quantile(0.5) / 1e3
	v["netsim.sync.round_us_p90"] = tr.rounds.quantile(0.9) / 1e3
}

// setReplay records prog's replay cost on both DES backends.
func setReplay(rep *report, rec *recorder) {
	prog := rec.program()
	rep.values["des.replay_heap_ns"] = prog.replay(des.BackendHeap, nil)
	rep.values["des.replay_calendar_ns"] = prog.replay(des.BackendCalendar, nil)
}

// ---- rip_scale and metro_lan ----

// packetRun is one built packet-level scenario.
type packetRun struct {
	net     *netsim.Network
	pinger  *workload.Pinger
	agents  []*routing.Agent
	sends   [][]float64 // rip_scale's update transmissions; nil for metro_lan
	horizon float64
}

func ripScale(routers, perAS int, horizon float64) func(k int, seed int64, obs des.Observer) *packetRun {
	return func(k int, seed int64, obs des.Observer) *packetRun {
		sc := experiments.BuildNetScale(routers, perAS, k, seed, horizon, obs)
		return &packetRun{net: sc.Net, pinger: sc.Pinger, agents: sc.Agents, sends: sc.SendTimes, horizon: horizon}
	}
}

func metroLAN(segments, perSeg int, horizon float64) func(k int, seed int64, obs des.Observer) *packetRun {
	return func(k int, seed int64, obs des.Observer) *packetRun {
		sc := experiments.BuildMetroLAN(segments, perSeg, k, seed, horizon, obs)
		return &packetRun{net: sc.Net, pinger: sc.Pinger, agents: sc.Agents, horizon: horizon}
	}
}

func (r *packetRun) run() { r.net.RunUntil(r.horizon) }

// digest covers every output of the run: packet counters, the ping
// series, each agent's statistics and every recorded transmission.
func (r *packetRun) digest() uint64 {
	return hashOf(func(w io.Writer) {
		fmt.Fprint(w, r.net.Counters(), r.pinger.Result())
		for _, a := range r.agents {
			fmt.Fprint(w, a.Stats())
		}
		fmt.Fprint(w, r.sends)
	})
}

// check applies the paper-level checks: some pings come back, and at
// the horizon every live packet is parked in the simulator or pending
// in an agent.
func (r *packetRun) check() error {
	if loss := r.pinger.Result().LossRate(); !(loss < 1) {
		return fmt.Errorf("ping loss %v: no echo came back", loss)
	}
	pending := 0
	for _, a := range r.agents {
		pending += a.PendingPackets()
	}
	if live, parked := r.net.LivePackets(), r.net.ParkedPackets(); live != parked+pending {
		return fmt.Errorf("packet accounting: %d live, %d parked + %d pending in agents", live, parked, pending)
	}
	return nil
}

func (r *packetRun) verify(want uint64) error {
	if err := checkDigest(r.digest(), want); err != nil {
		return err
	}
	return r.check()
}

// packetWorkload runs a packet-level scenario at K=2, checked against
// its K=1 run.
type packetWorkload struct {
	name  string
	build func(k int, seed int64, obs des.Observer) *packetRun
}

// packetBase is what the untraced loop leaves for the traced passes.
type packetBase struct {
	want uint64 // digest of the K=1 reference run
	loopTimes
}

func (w *packetWorkload) base(seed int64, budget time.Duration, rep *report) *packetBase {
	b := &packetBase{}
	rep.attempt(func() error {
		ref := w.build(1, seed, nil)
		b.k1Run = timed(ref.run)
		b.want = ref.digest()
		return ref.check()
	})
	var last *packetRun
	loop(budget, func() {
		rep.attempt(func() error {
			var sc *packetRun
			setup := timed(func() { sc = w.build(partitions, seed, nil) })
			rep.syncMode(sc.net)
			var ac allocCounter
			run, cpu := timedCPU(func() {
				ac.start()
				sc.run()
				ac.stop()
			})
			b.allocs = append(b.allocs, ac.count)
			b.allocMB = append(b.allocMB, ac.mb)
			b.setup = append(b.setup, setup)
			b.run = append(b.run, run)
			b.cpu = append(b.cpu, cpu)
			last = sc
			return sc.verify(b.want)
		})
	})
	b.fill(rep)
	rep.values["heap_live_mb"] = liveHeapMB(last)
	return b
}

func (w *packetWorkload) measure(seed int64, budget time.Duration, rep *report) {
	w.base(seed, budget, rep)
}

func (w *packetWorkload) trace(seed int64, budget time.Duration, rep *report, sp *spans) {
	b := w.base(seed, budget, rep)
	b.setLayers(rep)
	v := rep.values
	untraced := v["run_s"]
	root := sp.begin(w.name, -1)
	rec := &recorder{max: maxRecorded}
	rep.attempt(func() error {
		s := sp.begin("des.record_k1", root)
		defer sp.end(s)
		sc := w.build(1, seed, rec)
		sc.run()
		return sc.verify(b.want)
	})
	s := sp.begin("des.replay", root)
	setReplay(rep, rec)
	sp.end(s)

	rep.attempt(func() error {
		tr := &tracer{sp: sp}
		runtime.GC() // start from a clean heap, as the untraced runs do
		bs := sp.begin("experiments.build", root)
		sc := w.build(partitions, seed, tr)
		sp.end(bs)
		v["experiments.build_s"] = float64(sp.list[bs].End-sp.list[bs].Start) / 1e9
		var windows hist
		rs := sp.begin("netsim.run", root)
		traced := windowed(sc.net, sc.horizon, tr, &windows, rs)
		sp.end(rs)
		if untraced > 0 {
			v["trace.overhead"] = traced / untraced
		}
		setNetsim(rep, []*netsim.Network{sc.net}, sc.horizon, tr, &windows)
		var st routing.Stats
		for _, a := range sc.agents {
			s := a.Stats()
			st.PeriodicSent += s.PeriodicSent
			st.TriggeredSent += s.TriggeredSent
			st.Received += s.Received
			st.RouteChanges += s.RouteChanges
		}
		v["routing.periodic_sent"] = float64(st.PeriodicSent)
		v["routing.triggered_sent"] = float64(st.TriggeredSent)
		v["routing.received"] = float64(st.Received)
		v["routing.route_changes"] = float64(st.RouteChanges)
		pr := sc.pinger.Result()
		v["workload.ping_loss"] = pr.LossRate()
		v["workload.rtt_p50_ms"] = 1e3 * pr.RTTQuantile(0.5)
		return sc.verify(b.want)
	})
	sp.end(root)
}

// ---- bgp_mrai ----

// bgpWorkload runs one ext_bgp slice — both jitter arms at one size and
// one MRAI — through the experiment driver.
type bgpWorkload struct {
	ases          int
	mrai, horizon float64
}

// bgpGraphs is how many AS graphs one run rotates through. A slice's
// work depends on its graph: over ten seeds one graph's run time spread
// by 11% between quartiles, so a median over a single graph would
// mostly measure which graph the seed drew.
const bgpGraphs = 4

// graphSeed is the simulator seed of a run's j-th graph.
func graphSeed(seed int64, j int) int64 { return seed*bgpGraphs + int64(j) }

var bgpArms = []string{"none", "uniform"}

func (w *bgpWorkload) config(jobs int, seed int64) experiments.BGPConfig {
	return experiments.BGPConfig{
		Sizes: []int{w.ases}, MRAIs: []float64{w.mrai},
		Horizon: w.horizon, Jobs: jobs, Seed: seed,
	}
}

func digestResult(res *experiments.Result) uint64 {
	return hashOf(func(w io.Writer) {
		for _, s := range res.Series {
			fmt.Fprint(w, s.Name, s.X, s.Y)
		}
		fmt.Fprint(w, res.Notes)
	})
}

// seriesValue returns the single value of the driver series named
// "<metric> (jit=<arm> mrai=<m>s)".
func (w *bgpWorkload) seriesValue(res *experiments.Result, metric, arm string) (float64, error) {
	name := fmt.Sprintf("%s (jit=%s mrai=%gs)", metric, arm, w.mrai)
	for _, s := range res.Series {
		if s.Name == name && len(s.Y) == 1 {
			return s.Y[0], nil
		}
	}
	return 0, fmt.Errorf("ext_bgp result has no single-point series %q", name)
}

// check applies the paper-level check: MRAI rounds synchronize without
// jitter and stay spread with it.
func (w *bgpWorkload) check(res *experiments.Result) error {
	none, err := w.seriesValue(res, "round sync cluster", "none")
	if err != nil {
		return err
	}
	uniform, err := w.seriesValue(res, "round sync cluster", "uniform")
	if err != nil {
		return err
	}
	if none < 0.9 || uniform > 0.2 {
		return fmt.Errorf("round cluster none=%v (want >= 0.9), uniform=%v (want <= 0.2)", none, uniform)
	}
	return nil
}

// checkCell compares one scenario's outputs with the driver reference.
func (w *bgpWorkload) checkCell(sc *experiments.BGPScenario, arm string, ref *experiments.Result) error {
	for _, m := range []struct {
		metric string
		got    float64
	}{
		{"round sync cluster", sc.SyncClusterFraction()},
		{"peak/mean burst", sc.BurstRatio()},
		{"storm length s", sc.StormLength()},
	} {
		want, err := w.seriesValue(ref, m.metric, arm)
		if err != nil {
			return err
		}
		if m.got != want {
			return fmt.Errorf("%s arm: %s %v differs from the reference %v", arm, m.metric, m.got, want)
		}
	}
	return nil
}

type bgpBase struct {
	refs []*experiments.Result // the K=1 driver result of each graph
	loopTimes
}

func (w *bgpWorkload) build(arm string, k int, seed int64, obs des.Observer) *experiments.BGPScenario {
	return experiments.BuildBGP(w.ases, k, w.mrai, arm, seed, w.horizon, obs)
}

func (w *bgpWorkload) base(seed int64, budget time.Duration, rep *report) *bgpBase {
	b := &bgpBase{refs: make([]*experiments.Result, bgpGraphs)}
	// The driver builds inside its run, so set-up is timed separately:
	// the builds of one slice, both arms, twice per graph.
	var kept *experiments.BGPScenario
	for i := 0; i < 2*bgpGraphs; i++ {
		b.setup = append(b.setup, timed(func() {
			kept = w.build("none", partitions, graphSeed(seed, i%bgpGraphs), nil)
			w.build("uniform", partitions, graphSeed(seed, i%bgpGraphs), nil)
		}))
	}
	var k1 []float64
	for j := range b.refs {
		rep.attempt(func() error {
			k1 = append(k1, timed(func() { b.refs[j] = experiments.ExtBGP(w.config(1, graphSeed(seed, j))) }))
			return w.check(b.refs[j])
		})
	}
	b.k1Run = median(k1)
	i := 0
	loop(budget, func() {
		j := i % bgpGraphs
		i++
		rep.attempt(func() error {
			var res *experiments.Result
			run, cpu := timedCPU(func() { res = experiments.ExtBGP(w.config(partitions, graphSeed(seed, j))) })
			b.run = append(b.run, run)
			b.cpu = append(b.cpu, cpu)
			if err := checkDigest(digestResult(res), digestResult(b.refs[j])); err != nil {
				return err
			}
			return w.check(res)
		})
	})
	b.fill(rep)
	// The live heap of one cell after its run, the scenario reachable.
	// Its allocations stand for the runs' (the driver's include builds).
	rep.attempt(func() error {
		var ac allocCounter
		ac.start()
		kept.Run()
		ac.stop()
		b.allocs, b.allocMB = []float64{ac.count}, []float64{ac.mb}
		rep.syncMode(kept.Net)
		return w.checkCell(kept, "none", b.refs[bgpGraphs-1])
	})
	rep.values["heap_live_mb"] = liveHeapMB(kept)
	return b
}

func (w *bgpWorkload) measure(seed int64, budget time.Duration, rep *report) {
	w.base(seed, budget, rep)
}

func (w *bgpWorkload) trace(seed int64, budget time.Duration, rep *report, sp *spans) {
	b := w.base(seed, budget, rep)
	b.setLayers(rep)
	v := rep.values
	untraced := v["run_s"]
	root := sp.begin("bgp_mrai", -1)

	// The traced passes use the first graph. The synchronized arm's K=1
	// event sequence feeds the replay.
	seed = graphSeed(seed, 0)
	rec := &recorder{max: maxRecorded}
	rep.attempt(func() error {
		s := sp.begin("des.record_k1", root)
		defer sp.end(s)
		sc := w.build("none", 1, seed, rec)
		sc.Run()
		return w.checkCell(sc, "none", b.refs[0])
	})
	s := sp.begin("des.replay", root)
	setReplay(rep, rec)
	sp.end(s)

	tr := &tracer{sp: sp}
	var windows hist
	var nets []*netsim.Network
	var st pathvector.Stats
	traced := 0.0
	for _, arm := range bgpArms {
		rep.attempt(func() error {
			runtime.GC() // start from a clean heap, as the untraced runs do
			cell := sp.begin("experiments.cell."+arm, root)
			defer sp.end(cell)
			bs := sp.begin("experiments.build", cell)
			sc := w.build(arm, partitions, seed, tr)
			sp.end(bs)
			build := float64(sp.list[bs].End-sp.list[bs].Start) / 1e9
			v["experiments.build_s"] += build
			rs := sp.begin("netsim.run", cell)
			run := windowed(sc.Net, sc.Horizon, tr, &windows, rs)
			sp.end(rs)
			v["experiments.cell_run_s."+arm] = run
			traced += build + run
			nets = append(nets, sc.Net)
			for _, a := range sc.Agents {
				s := a.Stats()
				st.Flushes += s.Flushes
				st.Entries += s.Entries
				st.BestChanges += s.BestChanges
				st.LoopRejected += s.LoopRejected
			}
			return w.checkCell(sc, arm, b.refs[0])
		})
	}
	sp.end(root)
	if untraced > 0 {
		v["trace.overhead"] = traced / untraced
	}
	setNetsim(rep, nets, float64(len(bgpArms))*w.horizon, tr, &windows)
	v["pathvector.flushes"] = float64(st.Flushes)
	v["pathvector.entries"] = float64(st.Entries)
	v["pathvector.best_changes"] = float64(st.BestChanges)
	v["pathvector.loop_rejected"] = float64(st.LoopRejected)
	if st.Entries > 0 {
		v["pathvector.best_change_ratio"] = float64(st.BestChanges) / float64(st.Entries)
	}
}

// ---- model_largen ----

// The ext_largen operating point: Tp grows with N so the busy fraction
// N·Tc/Tp stays at the paper's 1.8%, and Tr = 2.5·Tc.
const (
	modelTc     = 0.11
	modelTrMult = 2.5
	modelTpPerN = 6.05
)

type modelCase struct {
	name   string
	n      int
	rounds int
	start  periodic.StartState
}

// modelCases runs n1 for rounds1 and n2 for rounds2, each from both
// start states.
func modelCases(n1, rounds1, n2, rounds2 int) []modelCase {
	var cs []modelCase
	for _, nr := range [][2]int{{n1, rounds1}, {n2, rounds2}} {
		cs = append(cs,
			modelCase{fmt.Sprintf("n%d.sync", nr[0]), nr[0], nr[1], periodic.StartSynchronized},
			modelCase{fmt.Sprintf("n%d.unsync", nr[0]), nr[0], nr[1], periodic.StartUnsynchronized})
	}
	return cs
}

func (c modelCase) config(seed int64) periodic.Config {
	return periodic.Config{
		N:      c.n,
		Tc:     modelTc,
		Jitter: jitter.Uniform{Tp: modelTpPerN * float64(c.n), Tr: modelTrMult * modelTc},
		Start:  c.start,
		Seed:   seed,
	}
}

// caseOut is one case's run.
type caseOut struct {
	times          []float64
	sizes          []int
	steps, firings uint64
	stepNs         float64 // Σ per-step wall time, traced runs only
}

// majority is the fraction of rounds whose largest cluster held a
// majority of the routers.
func (o caseOut) majority(n int) float64 {
	hits := 0
	for _, sz := range o.sizes {
		if 2*sz > n {
			hits++
		}
	}
	if len(o.sizes) == 0 {
		return 0
	}
	return float64(hits) / float64(len(o.sizes))
}

// runCase steps sys over rounds round windows, tracking the largest
// cluster per round as ext_largen does. With h non-nil each Step is
// timed into it.
func runCase(sys *periodic.System, rounds int, h *hist) caseOut {
	var out caseOut
	rt := cluster.NewRoundTracker(sys.RoundWindow())
	horizon := float64(rounds) * sys.RoundWindow()
	for next := sys.NextExpiry(); next <= horizon; {
		var ev periodic.Event
		if h != nil {
			t0 := time.Now()
			ev = sys.Step()
			d := time.Since(t0)
			h.add(uint64(d))
			out.stepNs += float64(d)
		} else {
			ev = sys.Step()
		}
		rt.Observe(ev.Start, ev.Size())
		out.steps++
		out.firings += uint64(ev.Size())
		next = ev.Next
	}
	out.times, out.sizes = rt.Finish()
	return out
}

// solveMarkov returns the Markov equilibrium's synchronized fraction at
// the case's operating point.
func solveMarkov(n int) float64 {
	ch, err := markov.New(markov.Params{N: n, Tp: modelTpPerN * float64(n), Tr: modelTrMult * modelTc, Tc: modelTc})
	if err != nil {
		panic(fmt.Sprintf("markov at N=%d: %v", n, err))
	}
	return 1 - ch.FractionUnsynchronized()
}

// modelWorkload runs the Periodic Messages model and its Markov chain.
type modelWorkload struct{ cases []modelCase }

// ns lists the distinct N of the cases, in order.
func (w *modelWorkload) ns() []int {
	var ns []int
	for _, c := range w.cases {
		if len(ns) == 0 || ns[len(ns)-1] != c.n {
			ns = append(ns, c.n)
		}
	}
	return ns
}

func (w *modelWorkload) setup(seed int64) []*periodic.System {
	sys := make([]*periodic.System, len(w.cases))
	for i, c := range w.cases {
		sys[i] = periodic.New(c.config(seed))
	}
	return sys
}

// digest covers every case's per-round series and the equilibria.
func (w *modelWorkload) digest(outs []caseOut, eq []float64) uint64 {
	return hashOf(func(wr io.Writer) {
		for _, o := range outs {
			fmt.Fprint(wr, o.times, o.sizes, o.steps, o.firings)
		}
		fmt.Fprint(wr, eq)
	})
}

// check applies the paper-level check: a synchronized start keeps its
// majority in every round, an unsynchronized start never gains one.
func (w *modelWorkload) check(outs []caseOut) error {
	var bad []string
	for i, c := range w.cases {
		want := 0.0
		if c.start == periodic.StartSynchronized {
			want = 1
		}
		if got := outs[i].majority(c.n); got != want {
			bad = append(bad, fmt.Sprintf("%s majority fraction %v, want %v", c.name, got, want))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%s", strings.Join(bad, "; "))
	}
	return nil
}

type modelBase struct {
	want uint64
	loopTimes
}

func (w *modelWorkload) base(seed int64, budget time.Duration, rep *report) *modelBase {
	rep.env["k"] = 0 // no partitioned run
	b := &modelBase{}
	for i := 0; i < modelSetupReps; i++ {
		b.setup = append(b.setup, timed(func() { w.setup(seed) }))
	}
	first := true
	var last []*periodic.System
	loop(budget, func() {
		rep.attempt(func() error {
			var sys []*periodic.System
			setup := timed(func() { sys = w.setup(seed) })
			outs := make([]caseOut, len(w.cases))
			var eq []float64
			run, cpu := timedCPU(func() {
				for i, c := range w.cases {
					outs[i] = runCase(sys[i], c.rounds, nil)
				}
				for _, n := range w.ns() {
					eq = append(eq, solveMarkov(n))
				}
			})
			b.cpu = append(b.cpu, cpu)
			b.setup = append(b.setup, setup)
			b.run = append(b.run, run)
			last = sys
			// The model has no partitions; the first run is the reference
			// every later run must reproduce.
			d := w.digest(outs, eq)
			if first {
				b.want, first = d, false
			}
			if err := checkDigest(d, b.want); err != nil {
				return err
			}
			return w.check(outs)
		})
	})
	b.fill(rep)
	rep.values["heap_live_mb"] = liveHeapMB(last)
	return b
}

func (w *modelWorkload) measure(seed int64, budget time.Duration, rep *report) {
	w.base(seed, budget, rep)
}

func (w *modelWorkload) trace(seed int64, budget time.Duration, rep *report, sp *spans) {
	b := w.base(seed, budget, rep)
	v := rep.values
	untraced := v["run_s"]
	root := sp.begin("model_largen", -1)
	defer sp.end(root)
	rep.attempt(func() error {
		outs := make([]caseOut, len(w.cases))
		traced := 0.0
		for i, c := range w.cases {
			cs := sp.begin("periodic."+c.name, root)
			var sys *periodic.System
			ns := sp.begin("periodic.new", cs)
			newS := timed(func() { sys = periodic.New(c.config(seed)) })
			sp.end(ns)
			// new_ms is the mean over the N's two start states.
			v[fmt.Sprintf("periodic.n%d.new_ms", c.n)] += 1e3 * newS / 2
			var h hist
			rs := sp.begin("periodic.run", cs)
			traced += timed(func() { outs[i] = runCase(sys, c.rounds, &h) })
			sp.end(rs)
			sp.end(cs)
			o := outs[i]
			p := "periodic." + c.name
			v[p+".step_ns_p50"] = h.quantile(0.5)
			v[p+".step_ns_p90"] = h.quantile(0.9)
			if o.firings > 0 {
				v[p+".ns_per_firing"] = o.stepNs / float64(o.firings)
			}
			v[p+".steps"] = float64(o.steps)
			v[p+".firings"] = float64(o.firings)
		}
		var eq []float64
		for _, n := range w.ns() {
			ms := sp.begin(fmt.Sprintf("markov.n%d", n), root)
			s := timed(func() { eq = append(eq, solveMarkov(n)) })
			sp.end(ms)
			traced += s
			v[fmt.Sprintf("markov.n%d.solve_ms", n)] = 1e3 * s
		}
		if untraced > 0 {
			v["trace.overhead"] = traced / untraced
		}
		if err := checkDigest(w.digest(outs, eq), b.want); err != nil {
			return err
		}
		return w.check(outs)
	})
}
