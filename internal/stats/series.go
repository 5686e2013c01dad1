package stats

import "math"

// Series is an (x, y) sequence — a figure's data in its rawest form. The
// experiments packages build Series values and internal/trace renders them.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Append adds one point.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s Series) Len() int { return len(s.X) }

// YRange returns the min and max of Y, ignoring NaN/±Inf points. It
// returns (NaN, NaN) when no finite points exist. The experiments and core
// tests bound their figure series with it.
func (s Series) YRange() (lo, hi float64) {
	lo, hi = math.NaN(), math.NaN()
	for _, y := range s.Y {
		if math.IsNaN(y) || math.IsInf(y, 0) {
			continue
		}
		if math.IsNaN(lo) || y < lo {
			lo = y
		}
		if math.IsNaN(hi) || y > hi {
			hi = y
		}
	}
	return lo, hi
}

// ClampY returns a copy of the series with every Y value above cap replaced
// by cap. The paper's Figure 12 y-axis tops out at 10^12 seconds; hitting
// times beyond that (including +Inf when growth is impossible) are plotted
// clamped the same way.
func (s Series) ClampY(cap float64) Series {
	out := Series{Name: s.Name, X: append([]float64(nil), s.X...), Y: make([]float64, len(s.Y))}
	for i, y := range s.Y {
		if y > cap || math.IsInf(y, 1) {
			out.Y[i] = cap
		} else {
			out.Y[i] = y
		}
	}
	return out
}

// Downsample returns a copy keeping every k-th point (k >= 1). Figures with
// hundreds of thousands of routing-message points are thinned before ASCII
// rendering.
func (s Series) Downsample(k int) Series {
	if k < 1 {
		k = 1
	}
	out := Series{Name: s.Name}
	for i := 0; i < s.Len(); i += k {
		out.Append(s.X[i], s.Y[i])
	}
	return out
}
