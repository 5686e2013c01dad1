// Command netexp runs the packet-level measurement scenarios (the
// paper's §2 evidence) on the netsim substrate: a ping path through
// routers whose synchronized routing updates stall forwarding, and a CBR
// audio stream with periodic outages.
//
// Usage:
//
//	netexp -scenario ping [flags]     # Figures 1 and 2
//	netexp -scenario audio [flags]    # Figure 3
//
// Examples:
//
//	# the Berkeley→MIT ping run: 1000 pings at 1.01 s over IGRP cores
//	netexp -scenario ping -routers 10 -routes 300
//
//	# the same network after the NEARnet software fix (no stalls)
//	netexp -scenario ping -routes 300 -fixed
//
//	# audio with jittered RIP timers: spikes disappear
//	netexp -scenario audio -jitter 15
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"routesync/internal/experiments"
	"routesync/internal/jitter"
	"routesync/internal/routing"
)

func main() {
	var (
		scenario = flag.String("scenario", "ping", "ping or audio")
		routers  = flag.Int("routers", 10, "routers on the backbone LAN (at least 2)")
		routes   = flag.Int("routes", 300, fmt.Sprintf("synthetic routes per router (table size, 1 to %d)", routing.MaxEntries/2))
		perRoute = flag.Float64("per-route", 0.001, "seconds of CPU per route")
		jitterTr = flag.Float64("jitter", 0, "timer jitter half-width in seconds (0 = none)")
		fixed    = flag.Bool("fixed", false, "post-fix routers: forwarding continues during update processing (emulated with negligible per-route cost)")
		pings    = flag.Int("pings", 1000, "ping count, at least 1 (ping scenario)")
		duration = flag.Float64("duration", 600, "stream duration in seconds, > 0 (audio scenario)")
		seed     = flag.Int64("seed", 1, "random seed")
		plot     = flag.Bool("plot", true, "render ASCII figures")
	)
	flag.Parse()

	var period float64
	switch *scenario {
	case "ping":
		period = routing.IGRP().Period
	case "audio":
		period = routing.RIP().Period
	default:
		fail("unknown scenario %q (allowed: ping, audio)", *scenario)
	}
	// PathConfig, Fig1 and Fig3 read zero as "use the default", so zero is
	// rejected here along with the values the simulator cannot build.
	switch {
	case *routers < 2:
		fail("-routers %d: a LAN needs at least 2 routers", *routers)
	case *routes < 1 || *routes > routing.MaxEntries/2:
		fail("-routes %d out of range [1, %d]", *routes, routing.MaxEntries/2)
	case *pings < 1:
		fail("-pings %d: need at least 1", *pings)
	case math.IsNaN(*duration) || math.IsInf(*duration, 0) || *duration <= 0:
		fail("-duration %g: need a finite duration > 0", *duration)
	}

	cfg := experiments.PathConfig{
		Routers:      *routers,
		ExtraRoutes:  *routes,
		PerRouteCost: *perRoute,
		Seed:         *seed,
	}
	if *fixed {
		cfg.PerRouteCost = 1e-9
	}
	if *jitterTr > 0 {
		cfg.Jitter = jitter.Uniform{Tp: period, Tr: *jitterTr}
	}

	if *scenario == "ping" {
		r1, ping := experiments.Fig1(cfg, *pings)
		show(r1, *plot)
		show(experiments.Fig2(ping, 200), *plot)
	} else {
		r3, _ := experiments.Fig3(cfg, *duration)
		show(r3, *plot)
	}
}

// fail prints one line to stderr and exits 1.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "netexp: "+format+"\n", args...)
	os.Exit(1)
}

// show prints one figure: the full ASCII plot, or just the header and
// notes with -plot=false.
func show(r *experiments.Result, plot bool) {
	if plot {
		fmt.Println(r.RenderASCII())
		return
	}
	fmt.Printf("== %s — %s\n", r.ID, r.Title)
	for _, n := range r.Notes {
		fmt.Println("   ", n)
	}
}
