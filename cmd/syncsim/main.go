// Command syncsim runs the Periodic Messages model from the command line:
// simulate N weakly-coupled routing timers and report whether — and how
// fast — they synchronize or desynchronize.
//
// Usage:
//
//	syncsim [flags]
//
// Examples:
//
//	# the paper's Figure 4 scenario: 20 routers, Tp=121s, Tc=0.11s, Tr=0.1s
//	syncsim -n 20 -tp 121 -tc 0.11 -tr 0.1 -horizon 1e5 -plot
//
//	# break-up of a synchronized start with strong jitter (Figure 8)
//	syncsim -start sync -tr 0.308 -horizon 1e7
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"routesync/internal/core"
	"routesync/internal/trace"
)

func main() {
	var (
		n        = flag.Int("n", 20, "number of routers")
		tp       = flag.Float64("tp", 121, "mean timer period Tp (seconds)")
		tr       = flag.Float64("tr", 0.1, "random component half-width Tr (seconds)")
		tc       = flag.Float64("tc", 0.11, "per-message processing cost Tc (seconds)")
		seed     = flag.Int64("seed", 1, "random seed")
		horizon  = flag.Float64("horizon", 1e6, "simulation horizon (seconds)")
		start    = flag.String("start", "unsync", "initial state: unsync or sync")
		thresh   = flag.Int("broken-threshold", 2, "largest cluster size at or below which a synchronized system counts as broken")
		plot     = flag.Bool("plot", false, "render the largest-cluster-per-round trace")
		analyze  = flag.Bool("analyze", true, "also print the Markov chain prediction")
		ensemble = flag.Int("ensemble", 0, "run this many replications in parallel and print quantiles instead of a single run")
	)
	flag.Parse()

	// Unknown -start values are an error, not silently "unsync": a typo
	// like `-start synced` must fail loudly instead of simulating the
	// wrong scenario.
	var startSync bool
	switch *start {
	case "unsync":
		startSync = false
	case "sync":
		startSync = true
	default:
		fmt.Fprintf(os.Stderr, "syncsim: unknown -start %q (allowed: unsync, sync)\n", *start)
		os.Exit(1)
	}

	p := core.Params{N: *n, Tp: *tp, Tr: *tr, Tc: *tc, Seed: *seed}
	var err error
	if *ensemble > 0 {
		err = runEnsemble(p, *ensemble, *horizon, startSync)
	} else {
		err = runOne(p, core.SimOptions{
			Horizon:           *horizon,
			StartSynchronized: startSync,
			BrokenThreshold:   *thresh,
			RecordTrace:       *plot,
		}, *analyze)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "syncsim:", err)
		os.Exit(1)
	}
}

// runOne simulates one replication and prints its report, the optional
// largest-cluster plot, and the optional Markov chain prediction.
func runOne(p core.Params, opt core.SimOptions, analyze bool) error {
	rep, err := core.Simulate(p, opt)
	if err != nil {
		return err
	}
	// Analyze before printing anything, so a failed run leaves stdout empty.
	var a *core.Analysis
	if analyze {
		if a, err = core.Analyze(p); err != nil {
			return fmt.Errorf("analyze: %w", err)
		}
	}
	fmt.Printf("parameters: N=%d Tp=%gs Tr=%gs Tc=%gs seed=%d (Tr = %.2f·Tc)\n",
		p.N, p.Tp, p.Tr, p.Tc, p.Seed, p.Tr/p.Tc)
	if opt.StartSynchronized {
		if rep.Broken {
			fmt.Printf("synchronization broken after %.0f rounds (%.3g s)\n", rep.BreakRounds, rep.BreakTime)
		} else {
			fmt.Printf("synchronization NOT broken within %.3g s\n", opt.Horizon)
		}
	} else {
		if rep.Synchronized {
			fmt.Printf("fully synchronized after %.0f rounds (%.3g s)\n", rep.SyncRounds, rep.SyncTime)
		} else {
			fmt.Printf("NOT synchronized within %.3g s\n", opt.Horizon)
		}
	}
	fmt.Printf("cluster events processed: %d\n", rep.Events)

	if opt.RecordTrace && rep.LargestTrace.Len() > 0 {
		fmt.Println(trace.Render(trace.PlotOptions{
			Title:  "largest cluster per round",
			XLabel: "time (s)", YLabel: "cluster size",
			YMin: 0, YMax: float64(p.N),
		}, rep.LargestTrace.Downsample(1+rep.LargestTrace.Len()/2000)))
	}

	if a != nil {
		fmt.Printf("\nMarkov chain model (paper §5):\n")
		fmt.Printf("  expected time to synchronize:   %s\n", seconds(a.ExpectedSyncSeconds))
		fmt.Printf("  expected time to desynchronize: %s\n", seconds(a.ExpectedUnsyncSeconds))
		fmt.Printf("  fraction of time unsynchronized: %.3f (%s)\n", a.FractionUnsynchronized, a.Regime)
	}
	return nil
}

// runEnsemble runs replications and prints the time-to-event quantiles.
func runEnsemble(p core.Params, replications int, horizon float64, startSync bool) error {
	res, err := core.SimulateEnsemble(p, replications, horizon, startSync)
	if err != nil {
		return err
	}
	what := "synchronize"
	if startSync {
		what = "break up"
	}
	fmt.Printf("ensemble of %d replications (horizon %.3g s): %d reached %s\n",
		res.Replications, horizon, res.Reached, what)
	if res.Reached > 0 {
		fmt.Printf("  time to %s: mean %s, median %s, p10 %s, p90 %s\n",
			what, seconds(res.Mean), seconds(res.Median), seconds(res.P10), seconds(res.P90))
	}
	return nil
}

// seconds formats a duration with an hours or years annotation.
func seconds(s float64) string {
	switch {
	case math.IsInf(s, 1):
		return "infinite"
	case s > 86400*365:
		return fmt.Sprintf("%.3g s (%.3g years)", s, s/(86400*365))
	case s > 3600:
		return fmt.Sprintf("%.3g s (%.1f hours)", s, s/3600)
	default:
		return fmt.Sprintf("%.3g s", s)
	}
}
