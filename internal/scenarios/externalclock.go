package scenarios

import (
	"routesync/internal/rng"
	"routesync/internal/stats"
)

// ExternalClockConfig parameterizes the §1 external-clock scenario:
// independent processes that each fire "on the hour" (cron jobs, the
// hourly weather-map fetches of [Pa93b], DECnet's on-the-hour peaks of
// [Pa93a]). The processes never communicate, yet their traffic is
// perfectly synchronized because they share a wall clock.
type ExternalClockConfig struct {
	Seed int64
}

// The scenario is an hourly-cron picture: clockProcesses processes fire
// at each clock boundary, boundaries clockInterval seconds apart, each
// process at its own fixed offset uniform in [0, clockStartNoise] (cron
// jitter, clock skew), observed for clockDuration seconds.
const (
	clockProcesses  = 50
	clockInterval   = 3600.0
	clockStartNoise = 30.0
	clockDuration   = 6 * clockInterval
)

// Defaults fills a zero Seed.
func (c ExternalClockConfig) Defaults() ExternalClockConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ExternalClockResult summarizes the aggregate arrival process.
type ExternalClockResult struct {
	// Histogram bins the arrivals over the window.
	Histogram *stats.Histogram
	// PeakToMean is the ratio of the fullest histogram bin to the mean
	// bin occupancy — 1.0 for uniform traffic, ≫1 for clock-synchronized
	// traffic.
	PeakToMean float64
}

// RunExternalClock simulates the scenario analytically (no event loop is
// needed: each process fires deterministically at boundary + its own
// offset) and bins the aggregate.
func RunExternalClock(cfg ExternalClockConfig) ExternalClockResult {
	cfg = cfg.Defaults()
	h := clockHistogram()
	r := rng.New(cfg.Seed)
	offsets := make([]float64, clockProcesses)
	for i := range offsets {
		offsets[i] = r.Uniform(0, clockStartNoise)
	}
	for b := 0.0; b < clockDuration; b += clockInterval {
		for _, off := range offsets {
			if t := b + off; t < clockDuration {
				h.Add(t)
			}
		}
	}
	return clockResult(h)
}

// UniformBaseline runs the same offered load with arrival times uniform
// over the window — what the network architect's intuition expects from
// "independent" sources. Comparing PeakToMean against this baseline
// quantifies how wrong the intuition is.
func UniformBaseline(cfg ExternalClockConfig) ExternalClockResult {
	cfg = cfg.Defaults()
	h := clockHistogram()
	r := rng.New(cfg.Seed + 9999)
	for n := int(clockDuration/clockInterval) * clockProcesses; n > 0; n-- {
		h.Add(r.Uniform(0, clockDuration))
	}
	return clockResult(h)
}

// clockHistogram bins the observation window one "minute"
// (clockInterval/60) per bin.
func clockHistogram() *stats.Histogram {
	return stats.NewHistogram(0, clockDuration, int(clockDuration/(clockInterval/60)))
}

// clockResult summarizes a filled histogram.
func clockResult(h *stats.Histogram) ExternalClockResult {
	peak := 0
	for _, c := range h.Counts {
		peak = max(peak, c)
	}
	res := ExternalClockResult{Histogram: h}
	if mean := float64(h.Total()) / float64(len(h.Counts)); mean > 0 {
		res.PeakToMean = float64(peak) / mean
	}
	return res
}
