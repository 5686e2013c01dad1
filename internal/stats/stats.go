// Package stats provides the statistical machinery the experiments need:
// autocorrelation (paper Fig 2), histograms, quantiles and simple
// time-series utilities. Everything is pure computation over float64
// slices; no I/O.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Autocorrelation returns the sample autocorrelation function of xs for
// lags 0..maxLag inclusive (so the result has maxLag+1 entries), using the
// standard biased estimator
//
//	r(k) = Σ_{t} (x_t − x̄)(x_{t+k} − x̄) / Σ_t (x_t − x̄)²
//
// This is the statistic behind the paper's Figure 2, where roundtrip times
// separated by 89 pings (~90 s of IGRP updates) correlate strongly.
// maxLag is clipped to len(xs)−1. A constant series returns r(0)=1 and 0
// for all other lags.
func Autocorrelation(xs []float64, maxLag int) []float64 {
	n := len(xs)
	if n == 0 {
		return nil
	}
	if maxLag >= n {
		maxLag = n - 1
	}
	if maxLag < 0 {
		maxLag = 0
	}
	mean := Mean(xs)
	var denom float64
	centered := make([]float64, n)
	for i, x := range xs {
		centered[i] = x - mean
		denom += centered[i] * centered[i]
	}
	out := make([]float64, maxLag+1)
	if denom == 0 {
		out[0] = 1
		return out
	}
	for k := 0; k <= maxLag; k++ {
		var num float64
		for t := 0; t+k < n; t++ {
			num += centered[t] * centered[t+k]
		}
		out[k] = num / denom
	}
	return out
}

// PeakLag returns the lag in [lo, hi] (inclusive) with the largest
// autocorrelation value, ignoring lag 0. It returns -1 if the range is
// empty or out of bounds.
func PeakLag(acf []float64, lo, hi int) int {
	if lo < 1 {
		lo = 1
	}
	if hi >= len(acf) {
		hi = len(acf) - 1
	}
	if lo > hi {
		return -1
	}
	best, bestLag := math.Inf(-1), -1
	for k := lo; k <= hi; k++ {
		if acf[k] > best {
			best, bestLag = acf[k], k
		}
	}
	return bestLag
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7, the numpy/R default).
// It returns NaN for empty input and panics for q outside [0,1].
func Quantile(xs []float64, q float64) float64 {
	if q < 0 || q > 1 {
		panic("stats: quantile out of [0,1]")
	}
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 0.5 quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Histogram is a fixed-width binned count over [Lo, Hi). Values outside
// the range land in no bin but count in Total.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram creates a histogram with bins equal-width bins over
// [lo, hi). It panics if bins <= 0 or hi <= lo.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 {
		panic("stats: histogram needs bins > 0")
	}
	if hi <= lo {
		panic("stats: histogram needs hi > lo")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
}

// Add tallies one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	if x < h.Lo || x >= h.Hi {
		return
	}
	i := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
	if i == len(h.Counts) { // guard against floating-point edge
		i--
	}
	h.Counts[i]++
}

// Total returns the number of observations Added, including out-of-range.
func (h *Histogram) Total() int { return h.total }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + w*(float64(i)+0.5)
}
