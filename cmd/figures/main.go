// Command figures regenerates every figure in the paper (1–15), the
// in-text claims, and the DESIGN.md ablations, writing <id>.csv and
// <id>.txt into the output directory and printing the headline notes.
//
// Usage:
//
//	figures [-out dir] [-quick] [-only fig04,fig12] [-jobs n] [-force]
//
// The experiments live in the registry under internal/runner (populated
// by internal/experiments); this command is the runner's only frontend.
// Every run maintains <out>/MANIFEST.json — per-experiment params hash,
// code version, git describe, wall time, and the content hash of each
// emitted file — and experiments whose manifest entry is up to date are
// skipped unless -force, so iterating on one figure no longer costs a
// full regeneration.
//
// -cpuprofile/-memprofile capture pprof profiles of the run. The
// hot-path benchmark snapshots (<out>/BENCH_NNNN.json) are not written
// here: cmd/benchguard -record gates `go test -bench` output of
// internal/bench and writes them.
//
// The default (paper-scale) run uses the paper's horizons — notably the
// 10^7-second sweeps of Figures 7 and 8 — and takes a few seconds.
// -quick shrinks horizons and replication counts further.
//
// The drivers are independent, so they run concurrently on at most
// -jobs workers (default: one per CPU). Output is deterministic for any
// -jobs value: every driver derives its randomness from its own seeds,
// results are printed and indexed in registration order, and a full run
// records per-driver wall times in <out>/TIMINGS.json.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	_ "routesync/internal/experiments" // registers every experiment
	"routesync/internal/runner"
)

func main() { os.Exit(run()) }

// run is main's body; it returns the exit code instead of calling
// os.Exit so the profiling defers below always flush.
func run() int {
	var (
		out      = flag.String("out", "out", "output directory")
		quick    = flag.Bool("quick", false, "reduced horizons and replications")
		only     = flag.String("only", "", "comma-separated figure ids to run (default all)")
		jobs     = flag.Int("jobs", 0, "max concurrent figure drivers (0 = one per CPU)")
		force    = flag.Bool("force", false, "re-run experiments even when their manifest entry is up to date")
		progress = flag.Bool("progress", false, "print live per-experiment engine counters to stderr")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "figures:", err)
				return
			}
			runtime.GC() // report live heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "figures:", err)
			}
			f.Close()
		}()
	}

	opts := runner.Options{
		Only:   *only,
		OutDir: *out,
		Quick:  *quick,
		Jobs:   *jobs,
		Force:  *force,
		Stdout: os.Stdout,
	}
	if *progress {
		opts.Progress = os.Stderr
	}
	sum, err := runner.Run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return 1
	}
	cached := ""
	if sum.Cached > 0 {
		cached = fmt.Sprintf(", %d cached", sum.Cached)
	}
	fmt.Printf("\nwrote %d figures to %s/ in %v (%d workers%s)\n",
		len(sum.Experiments), *out, sum.Total.Round(time.Millisecond), sum.Workers, cached)
	return 0
}
