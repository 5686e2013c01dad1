package scenarios

import (
	"math"

	"routesync/internal/rng"
	"routesync/internal/stats"
)

// TCPSyncConfig parameterizes the §1 TCP example: "the synchronization of
// the window increase/decrease cycles of separate TCP connections sharing
// a common bottleneck gateway [ZhC190] ... can be avoided by adding
// randomization to the gateway's algorithm for choosing packets to drop
// during periods of congestion [FJ92]".
//
// The model is a round-based AIMD abstraction: each connection has a
// congestion window; every round (one RTT) each window grows by one; when
// the offered load Σw exceeds the bottleneck capacity, the gateway is
// congested and drops — with a drop-tail gateway every connection loses a
// packet and halves (the phase-locking event); with a randomized gateway
// each connection is cut independently with probability proportional to
// its share of the overload.
type TCPSyncConfig struct {
	// Flows sharing the bottleneck.
	Flows int
	// Capacity is the bottleneck's packets-per-round budget.
	Capacity int
	// RandomDrop selects the [FJ92] randomized gateway; false is
	// drop-tail.
	RandomDrop bool
	// Rounds to simulate.
	Rounds int
	Seed   int64
}

// Defaults fills zero fields.
func (c TCPSyncConfig) Defaults() TCPSyncConfig {
	if c.Flows == 0 {
		c.Flows = 10
	}
	if c.Capacity == 0 {
		c.Capacity = 100
	}
	if c.Rounds == 0 {
		c.Rounds = 2000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// TCPSyncResult summarizes a run.
type TCPSyncResult struct {
	// Utilization is the mean offered load over capacity (can exceed 1;
	// the excess is dropped).
	Utilization float64
	// SawtoothCorrelation is the mean pairwise Pearson correlation of
	// the flows' window series — near 1 when the cycles are phase-locked
	// (the drop-tail pathology), near 0 when independent.
	SawtoothCorrelation float64
	// CutsPerCongestion is the mean number of flows cut per congestion
	// event (Flows for lockstep drop-tail, ~1-2 for randomized).
	CutsPerCongestion float64
}

// RunTCPSync simulates the model.
func RunTCPSync(cfg TCPSyncConfig) TCPSyncResult {
	res, _ := runTCPSync(cfg)
	return res
}

// runTCPSync is RunTCPSync that also returns the window series:
// windows[r][i] is flow i's window at round r.
func runTCPSync(cfg TCPSyncConfig) (res TCPSyncResult, windows [][]int) {
	cfg = cfg.Defaults()
	if cfg.Flows < 2 || cfg.Capacity < cfg.Flows || cfg.Rounds < 10 {
		panic("scenarios: invalid tcp-sync config")
	}
	r := rng.New(cfg.Seed)
	w := make([]int, cfg.Flows)
	for i := range w {
		w[i] = 1 + r.Intn(cfg.Capacity/cfg.Flows) // staggered start
	}
	windows = make([][]int, 0, cfg.Rounds)
	var loadSum float64
	congestions, cuts := 0, 0
	for round := 0; round < cfg.Rounds; round++ {
		// additive increase
		total := 0
		for i := range w {
			w[i]++
			total += w[i]
		}
		loadSum += float64(total) / float64(cfg.Capacity)
		if total > cfg.Capacity {
			congestions++
			if cfg.RandomDrop {
				// randomized gateway: the overflow packets are chosen
				// uniformly from the aggregate, so each flow is cut
				// with probability ≈ overflow share; at least one cut.
				over := float64(total-cfg.Capacity) / float64(total)
				cut := false
				for i := range w {
					p := math.Min(1, over*float64(cfg.Flows)*float64(w[i])/float64(total))
					if r.Bernoulli(p) {
						w[i] = max1(w[i] / 2)
						cuts++
						cut = true
					}
				}
				if !cut {
					i := weightedPick(r, w, total)
					w[i] = max1(w[i] / 2)
					cuts++
				}
			} else {
				// drop-tail: the full queue drops from every
				// connection's burst — all flows lose and halve
				// together (the [ZhC190] global synchronization).
				for i := range w {
					w[i] = max1(w[i] / 2)
					cuts++
				}
			}
		}
		snap := make([]int, cfg.Flows)
		copy(snap, w)
		windows = append(windows, snap)
	}
	res.Utilization = loadSum / float64(cfg.Rounds)
	if congestions > 0 {
		res.CutsPerCongestion = float64(cuts) / float64(congestions)
	}
	res.SawtoothCorrelation = meanPairwiseCorrelation(windows)
	return res, windows
}

func max1(v int) int {
	if v < 1 {
		return 1
	}
	return v
}

func weightedPick(r *rng.Source, w []int, total int) int {
	t := r.Intn(total)
	for i, v := range w {
		t -= v
		if t < 0 {
			return i
		}
	}
	return len(w) - 1
}

// meanPairwiseCorrelation computes the average Pearson correlation over
// all flow pairs, discarding a 25% warm-up prefix.
func meanPairwiseCorrelation(windows [][]int) float64 {
	if len(windows) == 0 {
		return math.NaN()
	}
	start := len(windows) / 4
	flows := len(windows[0])
	series := make([][]float64, flows)
	for i := 0; i < flows; i++ {
		series[i] = make([]float64, 0, len(windows)-start)
		for r := start; r < len(windows); r++ {
			series[i] = append(series[i], float64(windows[r][i]))
		}
	}
	var sum float64
	pairs := 0
	for i := 0; i < flows; i++ {
		for j := i + 1; j < flows; j++ {
			c := pearson(series[i], series[j])
			if !math.IsNaN(c) {
				sum += c
				pairs++
			}
		}
	}
	if pairs == 0 {
		return math.NaN()
	}
	return sum / float64(pairs)
}

func pearson(a, b []float64) float64 {
	ma, mb := stats.Mean(a), stats.Mean(b)
	var num, da, db float64
	for i := range a {
		x, y := a[i]-ma, b[i]-mb
		num += x * y
		da += x * x
		db += y * y
	}
	if da == 0 || db == 0 {
		return math.NaN()
	}
	return num / math.Sqrt(da*db)
}
