package scenarios

import (
	"math"

	"routesync/internal/rng"
	"routesync/internal/stats"
)

// ExternalClockConfig parameterizes the §1 external-clock scenario:
// independent processes that each fire "on the hour" (cron jobs, the
// hourly weather-map fetches of [Pa93b], DECnet's on-the-hour peaks of
// [Pa93a]). The processes never communicate, yet their traffic is
// perfectly synchronized because they share a wall clock.
type ExternalClockConfig struct {
	// Processes firing per clock boundary.
	Processes int
	// Interval between clock boundaries (3600 s for "hourly").
	Interval float64
	// StartNoise is the per-process fixed offset spread around the
	// boundary (cron jitter, clock skew), uniform in [0, StartNoise].
	StartNoise float64
	// Duration of the observation window.
	Duration float64
	Seed     int64
}

// Defaults fills zero fields with an hourly-cron picture.
func (c ExternalClockConfig) Defaults() ExternalClockConfig {
	if c.Processes == 0 {
		c.Processes = 50
	}
	if c.Interval == 0 {
		c.Interval = 3600
	}
	if c.StartNoise == 0 {
		c.StartNoise = 30
	}
	if c.Duration == 0 {
		c.Duration = 6 * c.Interval
	}
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
	h := clockHistogram(cfg)
	r := rng.New(cfg.Seed)
	offsets := make([]float64, cfg.Processes)
	for i := range offsets {
		offsets[i] = r.Uniform(0, math.Max(cfg.StartNoise, 1e-9))
	}
	for b := 0.0; b < cfg.Duration; b += cfg.Interval {
		for _, off := range offsets {
			if t := b + off; t < cfg.Duration {
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
	h := clockHistogram(cfg)
	r := rng.New(cfg.Seed + 9999)
	for n := int(cfg.Duration/cfg.Interval) * cfg.Processes; n > 0; n-- {
		h.Add(r.Uniform(0, cfg.Duration))
	}
	return clockResult(h)
}

// clockHistogram validates cfg and bins its observation window one
// "minute" (Interval/60) per bin, with at least 10 bins.
func clockHistogram(cfg ExternalClockConfig) *stats.Histogram {
	if cfg.Processes < 1 || cfg.Interval <= 0 || cfg.Duration <= 0 || cfg.StartNoise < 0 {
		panic("scenarios: invalid external-clock config")
	}
	bins := max(int(cfg.Duration/(cfg.Interval/60)), 10)
	return stats.NewHistogram(0, cfg.Duration, bins)
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
