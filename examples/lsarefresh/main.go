// Lsarefresh: the paper's warning applied to a protocol family it never
// names — link-state routing. A link-state router refreshes its LSAs
// periodically; an implementation that re-arms the refresh timer only
// after the flooding work drains has exactly the paper's weak coupling,
// and a LAN full of such routers marches into lock-step like any RIP
// deployment.
//
// Run with:
//
//	go run ./examples/lsarefresh
package main

import (
	"fmt"

	"routesync/internal/experiments"
)

func main() {
	fmt.Println("20 link-state routers on one LAN, 121 s LSA refresh, 110 ms of")
	fmt.Println("flooding work per LSA; random initial phases")
	fmt.Println()
	fmt.Println("running ~3x10^5 simulated seconds for each timer policy (takes ~1 min)...")
	fmt.Println()
	r := experiments.ExtLinkState(3e5, 1)
	for _, n := range r.Notes {
		fmt.Println(" ", n)
	}
	fmt.Println()
	fmt.Println("the left series collapses by three orders of magnitude: with 0.1 s of")
	fmt.Println("incidental jitter every router ends up flooding its LSAs in the same")
	fmt.Println("instant — the reason OSPF implementations jitter their refresh timers")
}
