package experiments

import (
	"routesync/internal/jitter"
	"routesync/internal/markov"
	"routesync/internal/stats"
	"routesync/internal/trace"
)

// ClaimPARC reproduces the paper's §1 worked example: the Xerox PARC
// network's cisco routers took roughly 300 ms to process a routing
// message (1 ms per route × 300 routes), so "the routers would have to
// add at least a second of randomness to their update intervals to
// prevent synchronization". The driver sweeps Tr for the PARC parameters
// and reports where the network flips to predominately unsynchronized.
func ClaimPARC(seed int64) *Result {
	const (
		n  = 20
		tp = 90.0 // IGRP period on the measured network
		tc = 0.3  // 300 ms measured processing cost
	)
	ser := stats.Series{Name: "fraction unsynchronized"}
	flip := -1.0
	for tr := 0.16; tr <= 2.0+1e-9; tr += 0.02 {
		ch, err := markov.New(markov.Params{N: n, Tp: tp, Tr: tr, Tc: tc})
		if err != nil {
			panic(err)
		}
		f := ch.FractionUnsynchronized()
		ser.Append(tr, f)
		if flip < 0 && f > 0.5 {
			flip = tr
		}
	}
	r := &Result{
		ID:     "claim_parc",
		Title:  "Xerox PARC worked example: randomness needed at Tc = 300 ms",
		Series: []stats.Series{ser},
		Plot: trace.PlotOptions{
			XLabel: "Tr (seconds)", YLabel: "fraction unsynchronized",
			YMin: 0, YMax: 1,
		},
	}
	rec := jitter.Recommend(tp, tc)
	r.Notef("fraction crosses 1/2 near Tr = %.2f s (paper: 'at least a second')", flip)
	r.Notef("Recommend: MinTr = %.1f s (10·Tc), SafeTr = %.1f s (Tp/2)", rec.MinTr, rec.SafeTr)
	return r
}

// ClaimGuidance verifies §5.3's two rules across a parameter grid:
// Tr ≥ 10·Tc keeps the system predominately unsynchronized, and
// Tr = Tp/2 (timer ~ U[0.5·Tp, 1.5·Tp]) does so for any parameters.
func ClaimGuidance() *Result {
	type gridPoint struct {
		n  int
		tp float64
		tc float64
	}
	grid := []gridPoint{
		{10, 30, 0.01}, {20, 30, 0.05}, {30, 30, 0.1},
		{10, 90, 0.1}, {20, 90, 0.3}, {30, 90, 0.5},
		{10, 121, 0.11}, {20, 121, 0.11}, {30, 121, 0.11},
		{20, 180, 1.0}, {30, 120, 0.5},
	}
	tenTc := stats.Series{Name: "Tr = 10·Tc"}
	halfTp := stats.Series{Name: "Tr = Tp/2"}
	r := &Result{
		ID:    "claim_guidance",
		Title: "jitter guidance: fraction unsynchronized across a parameter grid",
		Plot: trace.PlotOptions{
			XLabel: "grid point", YLabel: "fraction unsynchronized",
			YMin: 0, YMax: 1,
		},
	}
	okTen, okHalf := 0, 0
	for i, g := range grid {
		ch1, err := markov.New(markov.Params{N: g.n, Tp: g.tp, Tr: 10 * g.tc, Tc: g.tc})
		if err != nil {
			panic(err)
		}
		f1 := ch1.FractionUnsynchronized()
		tenTc.Append(float64(i), f1)
		if f1 > 0.95 {
			okTen++
		}
		ch2, err := markov.New(markov.Params{N: g.n, Tp: g.tp, Tr: g.tp / 2, Tc: g.tc})
		if err != nil {
			panic(err)
		}
		f2 := ch2.FractionUnsynchronized()
		halfTp.Append(float64(i), f2)
		if f2 > 0.95 {
			okHalf++
		}
	}
	r.Series = []stats.Series{tenTc, halfTp}
	r.Notef("Tr=10·Tc keeps fraction>0.95 at %d/%d grid points", okTen, len(grid))
	r.Notef("Tr=Tp/2 keeps fraction>0.95 at %d/%d grid points", okHalf, len(grid))
	return r
}
