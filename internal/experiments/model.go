package experiments

import (
	"fmt"
	"math"

	"routesync/internal/jitter"
	"routesync/internal/periodic"
	"routesync/internal/stats"
	"routesync/internal/trace"
)

// The paper's §4 values, which every Periodic Messages model figure runs
// with: N routers, mean period Tp and per-message processing Tc in
// seconds, and the model's seed. The §5 Markov figures share them (there
// N and Tc are only the defaults of the swept values).
const (
	paperN    = 20
	paperTp   = 121.0
	paperTc   = 0.11
	paperSeed = 1
)

// ModelConfig parameterizes the Periodic Messages model figures (4–8).
// The zero value is replaced by the paper's parameters via Defaults.
type ModelConfig struct {
	Tr      float64 // random component (paper Fig 4: 0.1 s)
	Horizon float64 // simulation horizon in seconds
}

// Defaults fills zero fields with the paper's §4 values.
func (c ModelConfig) Defaults() ModelConfig {
	if c.Tr == 0 {
		c.Tr = 0.1
	}
	if c.Horizon == 0 {
		c.Horizon = 1e5
	}
	return c
}

func (c ModelConfig) system(start periodic.StartState) *periodic.System {
	return periodic.New(periodic.Config{
		N:      paperN,
		Tc:     paperTc,
		Jitter: jitter.Uniform{Tp: paperTp, Tr: c.Tr},
		Start:  start,
		Seed:   paperSeed,
	})
}

// Fig4 regenerates the paper's Figure 4: the time-offset (time mod Tp+Tc)
// of every routing message in a run that starts unsynchronized and ends
// with all N messages transmitted at the same offset each round.
func Fig4(c ModelConfig) *Result {
	c = c.Defaults()
	s := c.system(periodic.StartUnsynchronized)
	pts := s.OffsetTrace(c.Horizon)
	ser := stats.Series{Name: "routing messages"}
	for _, p := range pts {
		ser.Append(p.Time, p.Offset)
	}
	r := &Result{
		ID:    "fig04",
		Title: "synchronization of periodic routing messages (time-offset trace)",
		Plot: trace.PlotOptions{
			XLabel: "time (s)", YLabel: "time-offset mod Tp+Tc (s)",
		},
		Series: []stats.Series{ser.Downsample(1 + ser.Len()/4000)},
	}
	// Headline: when did the run fully synchronize?
	s2 := c.system(periodic.StartUnsynchronized)
	res := s2.RunUntilSynchronized(c.Horizon * 10)
	if res.Reached {
		r.Notef("fully synchronized after %.0f rounds (%.0f s); paper reports 826 rounds",
			res.Rounds, res.Time)
	} else {
		r.Notef("did not synchronize within %.0f s", c.Horizon*10)
	}
	r.Notef("%d routing messages plotted over %.0f s", ser.Len(), c.Horizon)
	r.addRounds(s, s2)
	return r
}

// Fig5 regenerates Figure 5: an enlargement showing timer expirations
// ("x" in the paper) and timer resets ("o") as two routers form a cluster
// and break up again.
func Fig5(c ModelConfig, from, to float64) *Result {
	c = c.Defaults()
	if to <= from {
		from, to = 35500, 38500 // the paper's enlargement window
	}
	s := c.system(periodic.StartUnsynchronized)
	marks := s.EventMarks(from, to)
	window := s.RoundWindow()
	expiries := stats.Series{Name: "timer expiration (x)"}
	resets := stats.Series{Name: "timer reset (o)"}
	for _, m := range marks {
		if m.Time < from || m.Time > to {
			continue
		}
		y := math.Mod(m.Time, window)
		if m.Reset {
			resets.Append(m.Time, y)
		} else {
			expiries.Append(m.Time, y)
		}
	}
	r := &Result{
		ID:     "fig05",
		Title:  "enlargement: timer expirations and resets during cluster formation",
		Series: []stats.Series{expiries, resets},
		Plot: trace.PlotOptions{
			XLabel: "time (s)", YLabel: "time-offset (s)",
		},
	}
	r.Notef("%d expirations and %d resets in [%.0f, %.0f]",
		expiries.Len(), resets.Len(), from, to)
	r.addRounds(s)
	return r
}

// Fig6 regenerates Figure 6: the cluster graph — the largest cluster in
// each round of N routing messages, for the same run as Figure 4.
func Fig6(c ModelConfig) *Result {
	c = c.Defaults()
	s := c.system(periodic.StartUnsynchronized)
	times, sizes := s.LargestPerRound(c.Horizon)
	ser := stats.Series{Name: "largest cluster"}
	for i := range times {
		ser.Append(times[i], float64(sizes[i]))
	}
	r := &Result{
		ID:     "fig06",
		Title:  "cluster graph: largest cluster per round",
		Series: []stats.Series{ser},
		Plot: trace.PlotOptions{
			XLabel: "time (s)", YLabel: "largest cluster size",
			YMin: 0, YMax: float64(paperN),
		},
	}
	last := 0
	if len(sizes) > 0 {
		last = sizes[len(sizes)-1]
	}
	r.Notef("final round largest cluster = %d of %d", last, paperN)
	r.addRounds(s)
	return r
}

// Fig7 regenerates Figure 7: runs starting unsynchronized for a range of
// random components Tr (the paper uses 0.6·Tc, 1.0·Tc, 1.4·Tc and a 10^7 s
// horizon); larger Tr takes longer to synchronize. It returns the cluster
// graph of each run, with the synchronization times as notes.
func Fig7(c ModelConfig, trOverTc []float64) *Result {
	c = c.Defaults()
	if len(trOverTc) == 0 {
		trOverTc = []float64{0.6, 1.0, 1.4}
	}
	r := &Result{
		ID:    "fig07",
		Title: "time to synchronize vs random component (unsynchronized start)",
		Plot: trace.PlotOptions{
			XLabel: "time (s)", YLabel: "largest cluster size",
			YMin: 0, YMax: float64(paperN),
		},
	}
	for _, m := range trOverTc {
		cc := c
		cc.Tr = m * paperTc
		s := cc.system(periodic.StartUnsynchronized)
		times, sizes := s.LargestPerRound(c.Horizon)
		ser := stats.Series{Name: fmtTr(m)}
		for i := range times {
			ser.Append(times[i], float64(sizes[i]))
		}
		r.Series = append(r.Series, ser.Downsample(1+ser.Len()/2000))

		s2 := cc.system(periodic.StartUnsynchronized)
		res := s2.RunUntilSynchronized(c.Horizon)
		if res.Reached {
			r.Notef("Tr=%.1fTc: synchronized after %.0f rounds (%.2es)", m, res.Rounds, res.Time)
		} else {
			r.Notef("Tr=%.1fTc: not synchronized within %.1es", m, c.Horizon)
		}
		r.addRounds(s, s2)
	}
	return r
}

// Fig8 regenerates Figure 8: runs starting synchronized (as after a wave
// of triggered updates) for Tr of 2.3·Tc, 2.5·Tc, 2.8·Tc; larger Tr breaks
// the synchronization faster. The break-up times are notes.
func Fig8(c ModelConfig, trOverTc []float64, brokenThreshold int) *Result {
	c = c.Defaults()
	if len(trOverTc) == 0 {
		trOverTc = []float64{2.3, 2.5, 2.8}
	}
	if brokenThreshold == 0 {
		brokenThreshold = 2
	}
	r := &Result{
		ID:    "fig08",
		Title: "time to break up vs random component (synchronized start)",
		Plot: trace.PlotOptions{
			XLabel: "time (s)", YLabel: "largest cluster size",
			YMin: 0, YMax: float64(paperN),
		},
	}
	for _, m := range trOverTc {
		cc := c
		cc.Tr = m * paperTc
		s := cc.system(periodic.StartSynchronized)
		times, sizes := s.LargestPerRound(c.Horizon)
		ser := stats.Series{Name: fmtTr(m)}
		for i := range times {
			ser.Append(times[i], float64(sizes[i]))
		}
		r.Series = append(r.Series, ser.Downsample(1+ser.Len()/2000))

		s2 := cc.system(periodic.StartSynchronized)
		res := s2.RunUntilBroken(brokenThreshold, c.Horizon)
		if res.Reached {
			r.Notef("Tr=%.1fTc: synchronization broken after %.0f rounds (%.2es)", m, res.Rounds, res.Time)
		} else {
			r.Notef("Tr=%.1fTc: synchronization not broken within %.1es", m, c.Horizon)
		}
		r.addRounds(s, s2)
	}
	return r
}

func fmtTr(m float64) string {
	return fmt.Sprintf("Tr=%.2gTc", m)
}
