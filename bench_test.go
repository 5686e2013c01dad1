// bench_test.go provides one benchmark per paper figure, claim and
// ablation — the regeneration harness in testing.B form. Benchmarks use
// reduced horizons/replications so `go test -bench=. -benchmem` completes
// in minutes; cmd/figures runs the full paper-scale versions.
package routesync_test

import (
	"testing"

	"routesync"
	"routesync/internal/experiments"
)

func benchModel() experiments.ModelConfig {
	return experiments.ModelConfig{N: 20, Tp: 121, Tc: 0.11, Tr: 0.1, Seed: 1, Horizon: 5e4}
}

func benchMarkov() experiments.MarkovConfig {
	return experiments.MarkovConfig{Sims: 2, SimHorizon: 1e6}
}

// BenchmarkFig1 regenerates the Berkeley→MIT ping trace (periodic loss
// from synchronized IGRP updates).
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, ping := experiments.Fig1(experiments.PathConfig{}, 300)
		if ping.Lost() == 0 {
			b.Fatal("no loss in Fig1 scenario")
		}
	}
}

// BenchmarkFig2 regenerates the RTT autocorrelation.
func BenchmarkFig2(b *testing.B) {
	_, ping := experiments.Fig1(experiments.PathConfig{}, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig2(ping, 150)
	}
}

// BenchmarkFig3 regenerates the audiocast outage trace (periodic loss
// from synchronized RIP updates).
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, audio := experiments.Fig3(experiments.PathConfig{}, 180)
		if audio.Lost() == 0 {
			b.Fatal("no loss in Fig3 scenario")
		}
	}
}

// BenchmarkFig4 regenerates the time-offset synchronization trace.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig4(benchModel())
	}
}

// BenchmarkFig5 regenerates the timer expiration/reset enlargement.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig5(benchModel(), 30000, 40000)
	}
}

// BenchmarkFig6 regenerates the largest-cluster-per-round graph.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig6(benchModel())
	}
}

// BenchmarkFig7 regenerates the unsynchronized-start Tr sweep.
func BenchmarkFig7(b *testing.B) {
	cfg := benchModel()
	cfg.Horizon = 2e5
	for i := 0; i < b.N; i++ {
		experiments.Fig7(cfg, []float64{0.6})
	}
}

// BenchmarkFig8 regenerates the synchronized-start Tr sweep.
func BenchmarkFig8(b *testing.B) {
	cfg := benchModel()
	cfg.Horizon = 2e5
	for i := 0; i < b.N; i++ {
		experiments.Fig8(cfg, []float64{2.8}, 2)
	}
}

// BenchmarkFig9 regenerates the transition-probability figure.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig9(experiments.MarkovConfig{})
	}
}

// BenchmarkFig10 regenerates the f(i) analysis-vs-simulation figure.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig10(benchMarkov())
	}
}

// BenchmarkFig11 regenerates the g(i) analysis-vs-simulation figure.
func BenchmarkFig11(b *testing.B) {
	cfg := benchMarkov()
	cfg.SimHorizon = 3e6
	for i := 0; i < b.N; i++ {
		experiments.Fig11(cfg)
	}
}

// BenchmarkFig12 regenerates the f(N)/g(1) Tr sweep.
func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig12(experiments.MarkovConfig{})
	}
}

// BenchmarkFig13 regenerates the multi-parameter sweep.
func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig13(experiments.MarkovConfig{}, nil, nil)
	}
}

// BenchmarkFig14 regenerates the fraction-vs-Tr phase transition.
func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig14(experiments.MarkovConfig{})
	}
}

// BenchmarkFig15 regenerates the fraction-vs-N phase transition.
func BenchmarkFig15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig15(experiments.MarkovConfig{})
	}
}

// BenchmarkClaimPARC regenerates the §1 worked example.
func BenchmarkClaimPARC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ClaimPARC(1)
	}
}

// BenchmarkClaimGuidance regenerates the §5.3 guidance grid.
func BenchmarkClaimGuidance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ClaimGuidance()
	}
}

// BenchmarkAblationTimerPolicy regenerates ablation A1.
func BenchmarkAblationTimerPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationTimerPolicy(benchModel())
	}
}

// BenchmarkAblationSolver regenerates ablation A2.
func BenchmarkAblationSolver(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationSolver(experiments.MarkovConfig{})
	}
}

// BenchmarkAblationDelivery regenerates ablation A3.
func BenchmarkAblationDelivery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationDelivery([]float64{0, 0.2}, 1)
	}
}

// BenchmarkExtCoherence regenerates the order-parameter trace extension.
func BenchmarkExtCoherence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ExtCoherence(benchModel())
	}
}

// BenchmarkExtStorm regenerates the restart-storm extension.
func BenchmarkExtStorm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ExtStorm(6, 1)
	}
}

// BenchmarkExtPerRouterFixed regenerates the §6 fixed-period alternative.
func BenchmarkExtPerRouterFixed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ExtPerRouterFixed([]float64{1, 5}, 1)
	}
}

// BenchmarkExtProtocolComparison regenerates the protocol-profile sweep.
func BenchmarkExtProtocolComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ExtProtocolComparison()
	}
}

// BenchmarkExtClientServer regenerates the Sprite client-server convoy.
func BenchmarkExtClientServer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ExtClientServer(10, 1)
	}
}

// BenchmarkExtExternalClock regenerates the external-clock peaks.
func BenchmarkExtExternalClock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ExtExternalClock(1)
	}
}

// BenchmarkExtTriggered regenerates the triggered-storm extension.
func BenchmarkExtTriggered(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ExtTriggered([]float64{4}, 2e5, 1)
	}
}

// BenchmarkExtTCPSync regenerates the TCP global-synchronization figure.
func BenchmarkExtTCPSync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ExtTCPSync([]int{8}, 1)
	}
}

// BenchmarkSimulateToSync measures raw model throughput: one full
// synchronization run of the paper scenario.
func BenchmarkSimulateToSync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := routesync.Simulate(routesync.PaperParams(0.1, int64(i+1)),
			routesync.SimOptions{Horizon: 5e5})
		if err != nil {
			b.Fatal(err)
		}
		_ = rep
	}
}

// BenchmarkAnalyze measures the Markov chain evaluation.
func BenchmarkAnalyze(b *testing.B) {
	p := routesync.PaperParams(0.2, 1)
	for i := 0; i < b.N; i++ {
		if _, err := routesync.Analyze(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtThreshold regenerates the phase-boundary figure.
func BenchmarkExtThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ExtThreshold([]int{10, 20, 30})
	}
}

// BenchmarkExtMixedPeriods regenerates the heterogeneous-period figure.
func BenchmarkExtMixedPeriods(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ExtMixedPeriods(0.1, 2e5, 1)
	}
}

// BenchmarkAblationQueueing regenerates the loss-vs-delay ablation.
func BenchmarkAblationQueueing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.AblationQueueing(300, 1)
	}
}

// BenchmarkExtLinkState regenerates the link-state synchronization figure
// over a reduced horizon.
func BenchmarkExtLinkState(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ExtLinkState(2e4, 1)
	}
}
