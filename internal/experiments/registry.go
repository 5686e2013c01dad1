package experiments

import (
	"routesync/internal/runner"
	"routesync/internal/workload"
)

// This file registers every figure driver in this package — the paper
// figures, claims, ablations, and extensions — with the experiment
// runner. cmd/figures is a thin frontend that selects from
// runner.Default by id; all configuration derivation (quick-vs-paper
// horizons, replication counts) lives here, next to the drivers it
// parameterizes.

func init() { RegisterAll(runner.Default) }

// figModel derives the Periodic Messages model configuration used by the
// figure drivers (the paper's defaults; Horizon 1e5 at both scales).
func figModel(spec *runner.Spec) ModelConfig {
	return ModelConfig{Horizon: 1e5}
}

// figSweepHorizon is the Figure 7/8 sweep horizon: the paper's 10^7 s,
// or 10^6 s under -quick.
func figSweepHorizon(spec *runner.Spec) float64 {
	if spec.Quick {
		return 1e6
	}
	return 1e7
}

// figMarkov derives the §5 analysis configuration: 20 simulation
// replications over 5·10^6 s at paper scale, 3 over 10^6 s under -quick.
func figMarkov(spec *runner.Spec) MarkovConfig {
	c := MarkovConfig{Sims: 20, SimHorizon: 5e6, Jobs: spec.Jobs}
	if spec.Quick {
		c.Sims = 3
		c.SimHorizon = 1e6
	}
	return c
}

// figPings is the Figure 1 ping count (paper: 1000).
func figPings(spec *runner.Spec) int {
	if spec.Quick {
		return 300
	}
	return 1000
}

// figAudioDur is the Figure 3 stream duration (paper: 600 s).
func figAudioDur(spec *runner.Spec) float64 {
	if spec.Quick {
		return 180
	}
	return 600
}

// fig1Out bundles Figure 1's result with the raw ping run Figure 2
// consumes.
type fig1Out struct {
	res  *Result
	ping workload.PingResult
}

// fig1Shared computes the packet-level ping run Figures 1 and 2 share —
// once per runner invocation, by whichever driver gets there first, so
// `-only fig02` works without also writing fig01. Fig1 reports no counts:
// the run belongs to neither figure alone.
func fig1Shared(spec *runner.Spec) fig1Out {
	return spec.Shared("fig1-ping", func() any {
		r, ping := Fig1(PathConfig{}, figPings(spec))
		return fig1Out{res: r, ping: ping}
	}).(fig1Out)
}

// figNetScale, figChurn and figBGP derive the sweep drivers'
// configurations: the full sweep, or a reduced one under -quick.
func figNetScale(spec *runner.Spec) NetScaleConfig {
	cfg := NetScaleConfig{Jobs: spec.Jobs, Seed: 1}
	if spec.Quick {
		cfg.Sizes = []int{500, 1000}
		cfg.Horizon = 65
	}
	return cfg
}

func figChurn(spec *runner.Spec) ChurnConfig {
	cfg := ChurnConfig{Jobs: spec.Jobs, Seed: 1}
	if spec.Quick {
		cfg.NumAS = 4
		cfg.RoutersPerAS = 6
		cfg.MeanUps = []float64{60, 30}
		cfg.Horizon = 220
	}
	return cfg
}

func figBGP(spec *runner.Spec) BGPConfig {
	cfg := BGPConfig{Jobs: spec.Jobs, Seed: 1}
	if spec.Quick {
		cfg.Sizes = []int{300, 800}
		cfg.MRAIs = []float64{0, 5}
		cfg.Horizon = 120
	}
	return cfg
}

// fig registers one figure driver. The driver's Result supplies the
// title and notes; finishResult writes the files.
func fig(reg *runner.Registry, id string, fn func(*runner.Spec) *Result) {
	reg.Register(runner.Experiment{
		ID: id,
		Run: func(spec *runner.Spec) (*runner.Artifacts, error) {
			return finishResult(fn(spec), spec)
		},
	})
}

// finishResult writes a figure Result as <id>.csv and <id>.txt and
// converts it into runner Artifacts.
func finishResult(r *Result, spec *runner.Spec) (*runner.Artifacts, error) {
	if err := r.WriteFiles(spec.OutDir); err != nil {
		return nil, err
	}
	points := 0
	for _, s := range r.Series {
		points += s.Len()
	}
	return &runner.Artifacts{
		Title:  r.Title,
		Notes:  r.Notes,
		Series: len(r.Series),
		Points: points,
		Files:  []string{r.ID + ".csv", r.ID + ".txt"},
		Counts: r.Counts,
	}, nil
}

// RegisterAll registers the paper figures, in-text claims, ablations,
// and extensions with reg in the order cmd/figures has always printed
// them. Exposed (rather than registering only into runner.Default) so
// tests can build fresh registries.
func RegisterAll(reg *runner.Registry) {
	fig(reg, "fig01", func(spec *runner.Spec) *Result {
		return fig1Shared(spec).res
	})
	fig(reg, "fig02", func(spec *runner.Spec) *Result {
		return Fig2(fig1Shared(spec).ping, 200)
	})
	fig(reg, "fig03", func(spec *runner.Spec) *Result {
		r, _ := Fig3(PathConfig{}, figAudioDur(spec))
		return r
	})
	fig(reg, "fig04", func(spec *runner.Spec) *Result {
		return Fig4(figModel(spec))
	})
	fig(reg, "fig05", func(spec *runner.Spec) *Result {
		return Fig5(figModel(spec), 0, 0)
	})
	fig(reg, "fig06", func(spec *runner.Spec) *Result {
		return Fig6(figModel(spec))
	})
	fig(reg, "fig07", func(spec *runner.Spec) *Result {
		cfg := figModel(spec)
		cfg.Horizon = figSweepHorizon(spec)
		return Fig7(cfg, nil)
	})
	fig(reg, "fig08", func(spec *runner.Spec) *Result {
		cfg := figModel(spec)
		cfg.Horizon = figSweepHorizon(spec)
		return Fig8(cfg, nil, 0)
	})
	fig(reg, "fig09", func(spec *runner.Spec) *Result {
		return Fig9(figMarkov(spec))
	})
	fig(reg, "fig10", func(spec *runner.Spec) *Result {
		return Fig10(figMarkov(spec))
	})
	fig(reg, "fig11", func(spec *runner.Spec) *Result {
		return Fig11(figMarkov(spec))
	})
	fig(reg, "fig12", func(spec *runner.Spec) *Result {
		return Fig12(figMarkov(spec))
	})
	fig(reg, "fig13", func(spec *runner.Spec) *Result {
		return Fig13(figMarkov(spec), nil, nil)
	})
	fig(reg, "fig14", func(spec *runner.Spec) *Result {
		return Fig14(figMarkov(spec))
	})
	fig(reg, "fig15", func(spec *runner.Spec) *Result {
		return Fig15(figMarkov(spec))
	})
	fig(reg, "claim_parc", func(spec *runner.Spec) *Result {
		return ClaimPARC(1)
	})
	fig(reg, "claim_guidance", func(spec *runner.Spec) *Result {
		return ClaimGuidance()
	})
	fig(reg, "ablation_timer_policy", func(spec *runner.Spec) *Result {
		return AblationTimerPolicy(figModel(spec))
	})
	fig(reg, "ablation_solver", func(spec *runner.Spec) *Result {
		return AblationSolver(figMarkov(spec))
	})
	fig(reg, "ablation_delivery", func(spec *runner.Spec) *Result {
		return AblationDelivery(nil, 1)
	})
	fig(reg, "ablation_queueing", func(spec *runner.Spec) *Result {
		return AblationQueueing(0, 1)
	})
	fig(reg, "ext_coherence", func(spec *runner.Spec) *Result {
		return ExtCoherence(figModel(spec))
	})
	fig(reg, "ext_storm", func(spec *runner.Spec) *Result {
		return ExtStorm(0, 1)
	})
	fig(reg, "ext_nsweep", func(spec *runner.Spec) *Result {
		seeds := 5
		if spec.Quick {
			seeds = 2
		}
		return ExtNSweep(0, nil, seeds, 3e6, 1)
	})
	fig(reg, "ext_perrouter_fixed", func(spec *runner.Spec) *Result {
		return ExtPerRouterFixed(nil, 1)
	})
	fig(reg, "ext_protocols", func(spec *runner.Spec) *Result {
		return ExtProtocolComparison()
	})
	fig(reg, "ext_clientserver", func(spec *runner.Spec) *Result {
		return ExtClientServer(0, 1)
	})
	fig(reg, "ext_externalclock", func(spec *runner.Spec) *Result {
		return ExtExternalClock(1)
	})
	fig(reg, "ext_tcpsync", func(spec *runner.Spec) *Result {
		return ExtTCPSync(nil, 1)
	})
	fig(reg, "ext_threshold", func(spec *runner.Spec) *Result {
		return ExtThreshold(nil)
	})
	fig(reg, "ext_mixed_periods", func(spec *runner.Spec) *Result {
		return ExtMixedPeriods(0.1, 1e6, 1)
	})
	fig(reg, "ext_linkstate", func(spec *runner.Spec) *Result {
		horizon := 3e5
		if spec.Quick {
			horizon = 5e4
		}
		return ExtLinkState(horizon, 1)
	})
	fig(reg, "ext_triggered", func(spec *runner.Spec) *Result {
		horizon := 3e6
		if spec.Quick {
			horizon = 5e5
		}
		return ExtTriggered(nil, horizon, 1)
	})
	fig(reg, "ext_netscale", func(spec *runner.Spec) *Result {
		return ExtNetScale(figNetScale(spec))
	})
	fig(reg, "ext_churn", func(spec *runner.Spec) *Result {
		return ExtChurn(figChurn(spec))
	})
	fig(reg, "ext_bgp", func(spec *runner.Spec) *Result {
		return ExtBGP(figBGP(spec))
	})
	fig(reg, "ext_largen", func(spec *runner.Spec) *Result {
		ns, rounds := []int(nil), 0
		if spec.Quick {
			ns, rounds = []int{1000, 3162, 10000}, 12
		}
		return ExtLargeN(ns, rounds, 1)
	})
}
