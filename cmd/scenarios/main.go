// Command scenarios runs the paper's §1 catalogue of synchronization
// mechanisms beyond routing messages: the TCP window global
// synchronization, the Sprite client–server convoy, and the
// external-clock traffic peaks.
//
// Usage:
//
//	scenarios -which tcp|clientserver|clock|all [flags]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"routesync/internal/parallel"
	"routesync/internal/scenarios"
	"routesync/internal/trace"
)

// study is one catalogue entry: its -which name and a report builder.
type study struct {
	name string
	run  func(seed int64) string
}

// studies lists the catalogue in the order `-which all` prints it.
var studies = []study{
	{"tcp", tcpSync},
	{"clientserver", clientServer},
	{"clock", externalClock},
}

func main() {
	var (
		which = flag.String("which", "all", "tcp, clientserver, clock, or all")
		seed  = flag.Int64("seed", 1, "random seed")
		jobs  = flag.Int("jobs", 0, "max concurrent scenarios (0 = one per CPU)")
	)
	flag.Parse()

	var selected []study
	for _, s := range studies {
		if *which == "all" || *which == s.name {
			selected = append(selected, s)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "scenarios: unknown -which %q (allowed: tcp, clientserver, clock, all)\n", *which)
		os.Exit(1)
	}
	// The studies run concurrently and print in catalogue order.
	parallel.RunOrdered(len(selected), *jobs, func(i int) string {
		return selected[i].run(*seed)
	}, func(_ int, report string) {
		fmt.Print(report)
	})
}

// tcpSync contrasts drop-tail and randomized gateways.
func tcpSync(seed int64) string {
	var b strings.Builder
	fmt.Fprintln(&b, "== TCP window synchronization [ZhC190] and the randomized-gateway fix [FJ92]")
	tail := scenarios.RunTCPSync(scenarios.TCPSyncConfig{Seed: seed})
	random := scenarios.RunTCPSync(scenarios.TCPSyncConfig{RandomDrop: true, Seed: seed})
	row := func(name string, r scenarios.TCPSyncResult) []string {
		return []string{name, fmt.Sprintf("%.2f", r.SawtoothCorrelation),
			fmt.Sprintf("%.1f", r.CutsPerCongestion), fmt.Sprintf("%.2f", r.Utilization)}
	}
	b.WriteString(trace.Table(
		[]string{"gateway", "correlation", "cuts/congestion", "utilization"},
		[][]string{row("drop-tail", tail), row("randomized", random)}))
	fmt.Fprintln(&b)
	return b.String()
}

// clientServer runs the server-failure convoy at low and high jitter.
func clientServer(seed int64) string {
	var b strings.Builder
	fmt.Fprintln(&b, "== Sprite client-server recovery convoy [Ba92]")
	for _, tr := range []float64{0.05, 15} {
		cs := scenarios.NewClientServer(scenarios.ClientServerConfig{
			N: 20, Tp: 30, Tr: tr, Tc: 0.1, Seed: seed,
		})
		cs.RunUntil(60)
		cs.Sim().Schedule(60.5, "fail", func() { cs.FailServer(65) })
		cs.RunUntil(600)
		fmt.Fprintf(&b, "Tr=%-5.2fs: phase coherence %.2f, largest convoy %d\n",
			tr, cs.OrderParameter(), cs.LargestConvoy())
	}
	fmt.Fprintln(&b)
	return b.String()
}

// externalClock compares on-the-hour traffic with a uniform baseline.
func externalClock(seed int64) string {
	var b strings.Builder
	fmt.Fprintln(&b, "== synchronization to an external clock [Pa93a]")
	cfg := scenarios.ExternalClockConfig{Seed: seed}
	clocked := scenarios.RunExternalClock(cfg)
	baseline := scenarios.UniformBaseline(cfg)
	b.WriteString(trace.Bars(
		[]string{"on-the-hour peak/mean", "uniform peak/mean"},
		[]float64{clocked.PeakToMean, baseline.PeakToMean}, 40))
	fmt.Fprintln(&b)
	return b.String()
}
