// Package trace renders experiment output: CSV series files (for external
// plotting) and ASCII scatter/line plots (so every paper figure can be
// inspected in a terminal with no tooling). It is deliberately stdlib-only.
package trace

import (
	"fmt"
	"io"
	"math"
	"strings"

	"routesync/internal/stats"
)

// WriteCSV emits the series in long format: series,x,y — one row per
// point, trivially loadable by any plotting tool.
func WriteCSV(w io.Writer, series ...stats.Series) error {
	if _, err := io.WriteString(w, "series,x,y\n"); err != nil {
		return err
	}
	for _, s := range series {
		name := s.Name
		if name == "" {
			name = "series"
		}
		for i := 0; i < s.Len(); i++ {
			if _, err := fmt.Fprintf(w, "%s,%g,%g\n", name, s.X[i], s.Y[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// PlotOptions controls ASCII rendering.
type PlotOptions struct {
	Title  string
	XLabel string
	YLabel string
	// LogY plots log10(y); non-positive values are skipped.
	LogY bool
	// YMin/YMax fix the y range; NaN (or zero-valued struct) means auto.
	YMin, YMax float64
}

// plotWidth and plotHeight are the plotting area in characters.
const plotWidth, plotHeight = 72, 20

// Markers assigns one rune per series, cycling if there are more series.
var Markers = []rune{'*', '+', 'o', 'x', '#', '@', '%', '~'}

// Render draws the series as an ASCII scatter plot. NaN/Inf points are
// skipped. An empty plot (no finite points) renders the frame with a
// "no data" note.
func Render(opt PlotOptions, series ...stats.Series) string {
	w, h := plotWidth, plotHeight

	tx := func(x float64) float64 { return x }
	ty := func(y float64) float64 { return y }
	if opt.LogY {
		ty = func(y float64) float64 {
			if y <= 0 {
				return math.NaN()
			}
			return math.Log10(y)
		}
	}

	// Determine ranges over finite transformed points.
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	fixedYMin := !math.IsNaN(opt.YMin) && (opt.YMin != 0 || opt.YMax != 0)
	fixedYMax := !math.IsNaN(opt.YMax) && (opt.YMin != 0 || opt.YMax != 0)
	for _, s := range series {
		for i := 0; i < s.Len(); i++ {
			x, y := tx(s.X[i]), ty(s.Y[i])
			if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
				continue
			}
			xmin, xmax = math.Min(xmin, x), math.Max(xmax, x)
			ymin, ymax = math.Min(ymin, y), math.Max(ymax, y)
		}
	}
	if fixedYMin {
		ymin = opt.YMin
		if opt.LogY {
			ymin = math.Log10(math.Max(opt.YMin, math.SmallestNonzeroFloat64))
		}
	}
	if fixedYMax {
		ymax = opt.YMax
		if opt.LogY {
			ymax = math.Log10(opt.YMax)
		}
	}

	var b strings.Builder
	if opt.Title != "" {
		b.WriteString(opt.Title)
		b.WriteByte('\n')
	}
	if math.IsInf(xmin, 1) || ymin > ymax {
		b.WriteString("(no data)\n")
		return b.String()
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}

	grid := make([][]rune, h)
	for r := range grid {
		grid[r] = make([]rune, w)
		for c := range grid[r] {
			grid[r][c] = ' '
		}
	}
	for si, s := range series {
		mark := Markers[si%len(Markers)]
		for i := 0; i < s.Len(); i++ {
			x, y := tx(s.X[i]), ty(s.Y[i])
			if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
				continue
			}
			c := int(float64(w-1) * (x - xmin) / (xmax - xmin))
			r := h - 1 - int(float64(h-1)*(y-ymin)/(ymax-ymin))
			if c < 0 || c >= w || r < 0 || r >= h {
				continue
			}
			grid[r][c] = mark
		}
	}

	yfmt := func(v float64) string {
		if opt.LogY {
			return fmt.Sprintf("%8.2e", math.Pow(10, v))
		}
		return fmt.Sprintf("%8.3g", v)
	}
	for r := 0; r < h; r++ {
		label := "        "
		switch r {
		case 0:
			label = yfmt(ymax)
		case h - 1:
			label = yfmt(ymin)
		case (h - 1) / 2:
			label = yfmt(ymin + (ymax-ymin)*float64(h-1-r)/float64(h-1))
		}
		b.WriteString(label)
		b.WriteString(" |")
		b.WriteString(string(grid[r]))
		b.WriteByte('\n')
	}
	b.WriteString(strings.Repeat(" ", 9))
	b.WriteByte('+')
	b.WriteString(strings.Repeat("-", w))
	b.WriteByte('\n')
	b.WriteString(fmt.Sprintf("%10s%-12.4g%s%12.4g\n", "", xmin, strings.Repeat(" ", max(0, w-24)), xmax))
	if opt.XLabel != "" || opt.YLabel != "" {
		b.WriteString(fmt.Sprintf("%10sx: %s   y: %s\n", "", opt.XLabel, opt.YLabel))
	}
	// legend
	if len(series) > 1 || (len(series) == 1 && series[0].Name != "") {
		b.WriteString(strings.Repeat(" ", 10))
		for si, s := range series {
			name := s.Name
			if name == "" {
				name = fmt.Sprintf("series%d", si)
			}
			b.WriteString(fmt.Sprintf("[%c] %s  ", Markers[si%len(Markers)], name))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
