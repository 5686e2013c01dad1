package stats

import (
	"math"
	"testing"
	"testing/quick"

	"routesync/internal/rng"
)

// BinMax buckets the series into fixed-width x bins of width w and keeps
// the maximum y per bin; x of each output point is the bin's left edge.
func (s Series) BinMax(w float64) Series {
	out := Series{Name: s.Name}
	if s.Len() == 0 || w <= 0 {
		return out
	}
	curBin := math.Floor(s.X[0] / w)
	curMax := s.Y[0]
	for i := 1; i < s.Len(); i++ {
		b := math.Floor(s.X[i] / w)
		if b != curBin {
			out.Append(curBin*w, curMax)
			curBin, curMax = b, s.Y[i]
			continue
		}
		if s.Y[i] > curMax {
			curMax = s.Y[i]
		}
	}
	out.Append(curBin*w, curMax)
	return out
}

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= tol
}

// TestMeanVarianceEdge checks Mean on the empty slice and on a classic
// set.
func TestMeanVarianceEdge(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
	if m := Mean([]float64{2, 4, 4, 4, 5, 5, 7, 9}); m != 5 {
		t.Fatalf("Mean = %v, want 5", m)
	}
}

func TestAutocorrelationLagZero(t *testing.T) {
	xs := []float64{1, 5, 2, 8, 3}
	acf := Autocorrelation(xs, 3)
	if !almostEq(acf[0], 1, 1e-12) {
		t.Fatalf("acf[0] = %v, want 1", acf[0])
	}
	if len(acf) != 4 {
		t.Fatalf("len(acf) = %d, want 4", len(acf))
	}
}

func TestAutocorrelationPeriodicSignal(t *testing.T) {
	// A signal with period 10 must peak at lag 10 — the Fig 2 mechanism
	// (RTT spikes every ~89 pings peak the ACF at lag 89).
	const period = 10
	xs := make([]float64, 400)
	for i := range xs {
		if i%period == 0 {
			xs[i] = 2.0 // "dropped ping" sentinel, as in the paper
		} else {
			xs[i] = 0.05
		}
	}
	acf := Autocorrelation(xs, 50)
	if got := PeakLag(acf, 2, 50); got != period {
		t.Fatalf("PeakLag = %d, want %d", got, period)
	}
	if acf[period] < 0.9 {
		t.Fatalf("acf[%d] = %v, want near 1", period, acf[period])
	}
	if acf[period/2] > 0.2 {
		t.Fatalf("acf at half period = %v, want near 0 or negative", acf[period/2])
	}
}

func TestAutocorrelationConstantSeries(t *testing.T) {
	acf := Autocorrelation([]float64{4, 4, 4, 4}, 2)
	if acf[0] != 1 || acf[1] != 0 || acf[2] != 0 {
		t.Fatalf("constant series acf = %v", acf)
	}
}

func TestAutocorrelationEmptyAndClipping(t *testing.T) {
	if Autocorrelation(nil, 5) != nil {
		t.Fatal("empty input should return nil")
	}
	acf := Autocorrelation([]float64{1, 2, 3}, 100)
	if len(acf) != 3 {
		t.Fatalf("maxLag should clip to n−1; len = %d", len(acf))
	}
	acf = Autocorrelation([]float64{1, 2, 3}, -2)
	if len(acf) != 1 {
		t.Fatalf("negative maxLag should clip to 0; len = %d", len(acf))
	}
}

// TestAutocorrelationBounds: |r(k)| <= 1 + ε for random data.
func TestAutocorrelationBounds(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		n := 10 + r.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Uniform(-10, 10)
		}
		for _, v := range Autocorrelation(xs, n/2) {
			if math.Abs(v) > 1+1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPeakLagOutOfRange(t *testing.T) {
	acf := []float64{1, 0.5, 0.2}
	if got := PeakLag(acf, 5, 10); got != -1 {
		t.Fatalf("PeakLag out of range = %d, want -1", got)
	}
	if got := PeakLag(acf, 0, 2); got != 1 {
		t.Fatalf("PeakLag should skip lag 0; got %d", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	if got := Quantile(xs, 0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 9 {
		t.Fatalf("q1 = %v", got)
	}
	if got := Median(xs); !almostEq(got, 3.5, 1e-12) {
		t.Fatalf("median = %v, want 3.5", got)
	}
	if got := Quantile([]float64{7}, 0.73); got != 7 {
		t.Fatalf("singleton quantile = %v", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
}

func TestQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Quantile(1.5) did not panic")
		}
	}()
	Quantile([]float64{1}, 1.5)
}

// TestQuantileMonotonic: quantiles are nondecreasing in q.
func TestQuantileMonotonic(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Uniform(-5, 5)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := Quantile(xs, q)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{-1, 0, 1.9, 2, 5, 9.999, 10, 11} {
		h.Add(x)
	}
	// -1, 10 and 11 fall outside [0, 10): no bin, but counted in Total.
	want := []int{2, 1, 1, 0, 1}
	for i, w := range want {
		if h.Counts[i] != w {
			t.Fatalf("bin %d = %d, want %d (counts %v)", i, h.Counts[i], w, h.Counts)
		}
	}
	if h.Total() != 8 {
		t.Fatalf("total = %d", h.Total())
	}
	if !almostEq(h.BinCenter(0), 1, 1e-12) {
		t.Fatalf("BinCenter(0) = %v", h.BinCenter(0))
	}
}

func TestHistogramConservation(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		h := NewHistogram(-1, 1, 1+r.Intn(20))
		n := 100 + r.Intn(1000)
		inside := 0
		for i := 0; i < n; i++ {
			x := r.Uniform(-2, 2)
			if x >= -1 && x < 1 {
				inside++
			}
			h.Add(x)
		}
		sum := 0
		for _, c := range h.Counts {
			sum += c
		}
		return sum == inside && h.Total() == n
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(0, 1, 0) },
		func() { NewHistogram(1, 1, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad histogram construction did not panic")
				}
			}()
			f()
		}()
	}
}

func TestSeriesBasics(t *testing.T) {
	var s Series
	s.Append(1, 10)
	s.Append(2, math.Inf(1))
	s.Append(3, 5)
	s.Append(4, math.NaN())
	if s.Len() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	lo, hi := s.YRange()
	if lo != 5 || hi != 10 {
		t.Fatalf("YRange = %v,%v, want 5,10", lo, hi)
	}
}

func TestSeriesYRangeAllBad(t *testing.T) {
	var s Series
	s.Append(1, math.NaN())
	lo, hi := s.YRange()
	if !math.IsNaN(lo) || !math.IsNaN(hi) {
		t.Fatal("YRange of all-NaN should be NaN,NaN")
	}
}

func TestSeriesClampY(t *testing.T) {
	var s Series
	s.Append(0, 1e15)
	s.Append(1, math.Inf(1))
	s.Append(2, 7)
	c := s.ClampY(1e12)
	if c.Y[0] != 1e12 || c.Y[1] != 1e12 || c.Y[2] != 7 {
		t.Fatalf("ClampY = %v", c.Y)
	}
	if s.Y[0] != 1e15 {
		t.Fatal("ClampY mutated the original")
	}
}

func TestSeriesDownsample(t *testing.T) {
	var s Series
	for i := 0; i < 10; i++ {
		s.Append(float64(i), float64(i*i))
	}
	d := s.Downsample(3)
	if d.Len() != 4 || d.X[1] != 3 || d.Y[3] != 81 {
		t.Fatalf("Downsample = %+v", d)
	}
	if s.Downsample(0).Len() != s.Len() {
		t.Fatal("Downsample(0) should behave like 1")
	}
}

func TestSeriesBinMax(t *testing.T) {
	var s Series
	pts := [][2]float64{{0.1, 1}, {0.5, 3}, {0.9, 2}, {1.2, 7}, {2.5, 4}, {2.6, 9}}
	for _, p := range pts {
		s.Append(p[0], p[1])
	}
	b := s.BinMax(1.0)
	if b.Len() != 3 {
		t.Fatalf("BinMax bins = %d, want 3 (%+v)", b.Len(), b)
	}
	if b.Y[0] != 3 || b.Y[1] != 7 || b.Y[2] != 9 {
		t.Fatalf("BinMax Y = %v", b.Y)
	}
	if b.X[0] != 0 || b.X[1] != 1 || b.X[2] != 2 {
		t.Fatalf("BinMax X = %v", b.X)
	}
}

func TestSeriesBinMaxEmpty(t *testing.T) {
	var s Series
	if s.BinMax(1).Len() != 0 {
		t.Fatal("BinMax on empty series should be empty")
	}
}

func BenchmarkAutocorrelation1000x100(b *testing.B) {
	r := rng.New(1)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Autocorrelation(xs, 100)
	}
}
