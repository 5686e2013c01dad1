// Package routesync is a from-scratch reproduction of "The
// Synchronization of Periodic Routing Messages" (Sally Floyd and Van
// Jacobson, SIGCOMM 1993): a library for studying — and engineering away —
// the inadvertent synchronization of periodic processes in networks.
//
// The paper's result, reproduced by this library's models and
// experiments, is that a population of routers sending "independent"
// periodic routing updates is weakly coupled through message processing,
// and that coupling drives the system to full synchronization. The
// transition is an abrupt phase transition in both the random timer
// component Tr and the router count N, and preventing it requires a
// surprisingly large amount of injected randomness (Tr of at least
// ~10× the per-message processing cost; Tr = Tp/2 is always safe).
//
// # Quick start
//
//	params := routesync.PaperParams(0.1, 1) // N=20, Tp=121s, Tc=0.11s, Tr=0.1s
//	rep, _ := routesync.Simulate(params, routesync.SimOptions{Horizon: 3e5})
//	if rep.Synchronized {
//	    fmt.Printf("synchronized after %.0f rounds\n", rep.SyncRounds)
//	}
//	plan, _ := routesync.PlanJitter(20, 90, 0.3) // the paper's PARC example
//	fmt.Printf("add at least %.1fs of jitter; %.1fs is always safe\n",
//	    plan.MinTr, plan.SafeTr)
//
// # Architecture
//
// The public API wraps internal packages, each usable on its own inside
// this module:
//
//   - internal/periodic — the Periodic Messages model (paper §3–4)
//   - internal/markov — the Markov chain model (paper §5)
//   - internal/jitter — timer jitter policies and the §5.3/§6 guidance
//   - internal/netsim — a packet-level network simulator
//   - internal/routing — distance-vector protocols (RIP/IGRP/DECnet/...)
//   - internal/linkstate — a link-state protocol with the same coupling
//   - internal/workload — ping and CBR audio generators and recorders
//   - internal/scenarios — the paper's §1 catalogue (TCP sync, convoys,
//     external clocks)
//   - internal/experiments — one driver per paper figure
//
// See DESIGN.md for the full inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every figure.
package routesync

import "routesync/internal/core"

// Params describes a network of periodic routing processes: N routers
// sending updates every Tp ± Tr seconds, spending Tc seconds processing
// each routing message. See core.Params.
type Params = core.Params

// SimOptions tunes Simulate. See core.SimOptions.
type SimOptions = core.SimOptions

// SimReport is the outcome of one simulation run. See core.SimReport.
type SimReport = core.SimReport

// Analysis is the Markov chain prediction. See core.Analysis.
type Analysis = core.Analysis

// Regime classifies parameters into the paper's randomization regions.
type Regime = core.Regime

// Randomization regimes (paper Fig 12).
const (
	RegimeLow      = core.RegimeLow
	RegimeModerate = core.RegimeModerate
	RegimeHigh     = core.RegimeHigh
)

// Comparison pits analysis against simulation. See core.Comparison.
type Comparison = core.Comparison

// JitterPlan is the actionable jitter guidance. See core.JitterPlan.
type JitterPlan = core.JitterPlan

// ErrBadParams reports invalid parameters.
var ErrBadParams = core.ErrBadParams

// PaperParams returns the paper's simulation parameters (N=20, Tp=121 s,
// Tc=0.11 s) with the given random component and seed.
func PaperParams(tr float64, seed int64) Params { return core.PaperParams(tr, seed) }

// Simulate runs the Periodic Messages model once: from an unsynchronized
// start it reports if/when the system fully synchronized; from a
// synchronized start (SimOptions.StartSynchronized), if/when it broke up.
func Simulate(p Params, opt SimOptions) (*SimReport, error) { return core.Simulate(p, opt) }

// Analyze evaluates the paper's Markov chain model: expected times to
// synchronize and desynchronize, the long-run fraction of time
// unsynchronized, and the equilibrium cluster-size distribution.
func Analyze(p Params) (*Analysis, error) { return core.Analyze(p) }

// Compare runs simulation replications beside the analysis, the
// validation of the paper's Figures 10–11.
func Compare(p Params, replications int, horizon float64) (*Comparison, error) {
	return core.Compare(p, replications, horizon)
}

// PlanJitter evaluates the paper's jitter guidance for a deployment: how
// much randomness to add to a tp-second routing timer when each routing
// message costs tc seconds of CPU across n routers.
func PlanJitter(n int, tp, tc float64) (*JitterPlan, error) { return core.PlanJitter(n, tp, tc) }

// CriticalJitter returns the phase-transition threshold Tr for a
// deployment (see core.CriticalJitter).
func CriticalJitter(n int, tp, tc float64) (float64, bool, error) {
	return core.CriticalJitter(n, tp, tc)
}

// EnsembleSummary reports a replicated simulation study.
type EnsembleSummary = core.EnsembleSummary

// SimulateEnsemble runs independent replications in parallel and
// summarizes the time to synchronization or break-up.
func SimulateEnsemble(p Params, replications int, horizon float64, startSynchronized bool) (*EnsembleSummary, error) {
	return core.SimulateEnsemble(p, replications, horizon, startSynchronized)
}
