package experiments

import (
	"math"

	"routesync/internal/jitter"
	"routesync/internal/markov"
	"routesync/internal/netsim"
	"routesync/internal/periodic"
	"routesync/internal/routing"
	"routesync/internal/stats"
	"routesync/internal/trace"
)

// AblationTimerPolicy (DESIGN.md A1) contrasts the paper's
// reset-after-processing timer with the RFC 1058 reset-on-expiry
// alternative: the former synchronizes from an unsynchronized start and
// (with enough jitter) breaks up a synchronized one; the latter does
// neither — it is immune to coupling but cannot repair synchronization
// caused by simultaneous restarts when the period is deterministic.
func AblationTimerPolicy(c ModelConfig) *Result {
	c = c.Defaults()
	r := &Result{
		ID:    "ablation_timer_policy",
		Title: "timer reset policy: coupled (paper) vs clock-driven (RFC 1058)",
		Plot: trace.PlotOptions{
			XLabel: "time (s)", YLabel: "largest cluster size",
			YMin: 0, YMax: float64(paperN),
		},
	}
	for _, mode := range []periodic.TimerReset{periodic.ResetAfterProcessing, periodic.ResetOnExpiry} {
		cfg := periodic.Config{
			N: paperN, Tc: paperTc,
			Jitter: jitter.Uniform{Tp: paperTp, Tr: c.Tr},
			Reset:  mode,
			Seed:   paperSeed,
		}
		s := periodic.New(cfg)
		times, sizes := s.LargestPerRound(c.Horizon)
		ser := stats.Series{Name: mode.String()}
		for i := range times {
			ser.Append(times[i], float64(sizes[i]))
		}
		r.Series = append(r.Series, ser.Downsample(1+ser.Len()/2000))

		s2 := periodic.New(cfg)
		res := s2.RunUntilSynchronized(c.Horizon)
		if res.Reached {
			r.Notef("%s: synchronized after %.0f rounds", mode, res.Rounds)
		} else {
			r.Notef("%s: never synchronized within %.1es", mode, c.Horizon)
		}
		r.addRounds(s, s2)
	}
	return r
}

// AblationSolver (DESIGN.md A2) compares the exact birth–death hitting
// times with the paper's printed Eq 3–6 recursion under both t(j,·)
// variants. With the conditional wait time the recursion is exact; with
// the printed t values it understates the times by a bounded factor.
func AblationSolver(c MarkovConfig) *Result {
	c = c.Defaults()
	const tr = 0.2
	ch, err := markov.New(markov.Params{N: c.N, Tp: paperTp, Tr: tr, Tc: c.Tc, F2: paperF2})
	if err != nil {
		panic(err)
	}
	exact := ch.F()
	cond := ch.PaperF(markov.TConditional)
	printed := ch.PaperF(markov.TPrinted)
	exSer := stats.Series{Name: "exact birth-death"}
	condSer := stats.Series{Name: "Eq3 + conditional t"}
	prSer := stats.Series{Name: "Eq3 + printed t"}
	maxCondDiff, maxRatio := 0.0, 0.0
	for i := 2; i <= c.N; i++ {
		exSer.Append(float64(i), exact[i])
		condSer.Append(float64(i), cond[i])
		prSer.Append(float64(i), printed[i])
		if exact[i] > 0 && !math.IsInf(exact[i], 1) {
			d := math.Abs(cond[i]-exact[i]) / exact[i]
			if d > maxCondDiff {
				maxCondDiff = d
			}
			if ratio := exact[i] / printed[i]; ratio > maxRatio {
				maxRatio = ratio
			}
		}
	}
	r := &Result{
		ID:     "ablation_solver",
		Title:  "Markov solvers: exact vs the paper's printed recursion",
		Series: []stats.Series{exSer, condSer, prSer},
		Plot: trace.PlotOptions{
			XLabel: "cluster size i", YLabel: "f(i) rounds (log)", LogY: true,
		},
	}
	r.Notef("conditional-t recursion matches exact solver within %.2g relative", maxCondDiff)
	r.Notef("printed-t recursion understates f(i) by up to %.2f×", maxRatio)
	return r
}

// AblationDelivery (DESIGN.md A3) probes the paper's §4
// immediate-notification assumption on the packet substrate: two coupled
// routers with deterministic timers are started 50 ms apart and the
// propagation delay of their shared LAN is swept. Lock-step survives as
// long as a neighbor's update (sent at timer expiry) arrives inside the
// local busy window; once the delay exceeds the processing window the
// coupling — and with it the paper's mechanism — disappears.
func AblationDelivery(delays []float64, seed int64) *Result {
	if len(delays) == 0 {
		delays = []float64{0, 0.01, 0.05, 0.2, 0.5}
	}
	const proc = 0.3 // seconds of CPU per message
	ser := stats.Series{Name: "send-time spread after 10 rounds"}
	r := &Result{
		ID:    "ablation_delivery",
		Title: "propagation delay vs timer coupling (two routers, 50 ms apart)",
		Plot: trace.PlotOptions{
			XLabel: "LAN propagation delay (s)", YLabel: "final send spread (s)",
		},
	}
	for _, d := range delays {
		net := netsim.NewNetwork(seed + 1)
		a := net.NewNode("a", &netsim.CPUConfig{})
		b := net.NewNode("b", &netsim.CPUConfig{})
		net.NewLAN([]*netsim.Node{a, b}, netsim.LANConfig{Delay: d})
		cfg := routing.Config{
			Profile: routing.RIP(),
			Jitter:  jitter.None{Tp: 30},
			Costs:   routing.Costs{MinPrepare: proc, MinProcess: proc},
			Seed:    seed,
		}
		agA := routing.NewAgent(a, cfg)
		agB := routing.NewAgent(b, cfg)
		var lastA, lastB float64
		agA.OnSend = func(t float64, trig bool) {
			if !trig {
				lastA = t
			}
		}
		agB.OnSend = func(t float64, trig bool) {
			if !trig {
				lastB = t
			}
		}
		agA.Start(1.0)
		agB.Start(1.05)
		net.RunUntil(10 * 30.9)
		spread := math.Abs(lastA - lastB)
		ser.Append(d, spread)
		r.Notef("delay %.3fs: final spread %.3fs (%s)", d, spread,
			lockLabel(spread))
	}
	r.Series = []stats.Series{ser}
	return r
}

func lockLabel(spread float64) string {
	if spread < 1e-9 {
		return "lock-step"
	}
	return "uncoupled"
}

// AblationQueueing contrasts router input-buffer policies during update
// stalls in the Figure 1 scenario: no buffering (every packet arriving
// during a stall dies — pure loss) versus a small input queue drained
// serially at a per-packet forwarding cost (some packets survive with
// inflated RTTs — the paper's Figure 1 shows both tall RTT spikes and
// drops). The trade is visible as loss rate versus worst-case RTT.
func AblationQueueing(pings int, seed int64) *Result {
	if pings == 0 {
		pings = 500
	}
	res := &Result{
		ID:    "ablation_queueing",
		Title: "router input buffering during update stalls: loss vs delay",
		Plot: trace.PlotOptions{
			XLabel: "ping number", YLabel: "rtt (s, drops at -0.1)",
		},
	}
	type variant struct {
		name  string
		queue int
		fcost float64
	}
	for _, v := range []variant{
		{"drop-all", 0, 0},
		{"queue-8-serial", 8, 0.02},
	} {
		cfg := PathConfig{InputQueueCap: v.queue, ForwardCost: v.fcost, Seed: seed}
		r, ping := Fig1(cfg, pings)
		r.Series[0].Name = v.name
		res.Series = append(res.Series, r.Series[0])
		res.Notef("%s: loss %.1f%%, median rtt %.3fs, p99 rtt %.3fs",
			v.name, 100*ping.LossRate(), ping.RTTQuantile(0.5), ping.RTTQuantile(0.99))
	}
	res.Notef("buffering converts some losses into delay spikes; the periodic signature remains either way")
	return res
}
