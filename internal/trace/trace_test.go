package trace

import (
	"math"
	"strings"
	"testing"

	"routesync/internal/stats"
)

func mkSeries(name string, pts ...[2]float64) stats.Series {
	s := stats.Series{Name: name}
	for _, p := range pts {
		s.Append(p[0], p[1])
	}
	return s
}

func TestWriteCSV(t *testing.T) {
	var b strings.Builder
	s1 := mkSeries("a", [2]float64{1, 2}, [2]float64{3, 4})
	s2 := mkSeries("", [2]float64{5, 6})
	if err := WriteCSV(&b, s1, s2); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	want := "series,x,y\na,1,2\na,3,4\nseries,5,6\n"
	if got != want {
		t.Fatalf("csv = %q, want %q", got, want)
	}
}

func TestRenderBasics(t *testing.T) {
	s := mkSeries("line", [2]float64{0, 0}, [2]float64{10, 10})
	out := Render(PlotOptions{Title: "T", XLabel: "x", YLabel: "y"}, s)
	if !strings.Contains(out, "T\n") {
		t.Fatal("missing title")
	}
	if !strings.Contains(out, "*") {
		t.Fatal("missing markers")
	}
	if !strings.Contains(out, "x: x   y: y") {
		t.Fatal("missing axis labels")
	}
	if !strings.Contains(out, "[*] line") {
		t.Fatal("missing legend")
	}
}

func TestRenderCornersLandAtCorners(t *testing.T) {
	s := mkSeries("", [2]float64{0, 0}, [2]float64{1, 1})
	out := Render(PlotOptions{}, s)
	lines := strings.Split(out, "\n")
	// top row contains the max point at the right edge
	if !strings.HasSuffix(strings.TrimRight(lines[0], " "), "*") {
		t.Fatalf("top row = %q", lines[0])
	}
	// bottom plot row contains the min point right after the axis bar
	bottom := lines[plotHeight-1]
	idx := strings.Index(bottom, "|")
	if idx < 0 || bottom[idx+1] != '*' {
		t.Fatalf("bottom row = %q", bottom)
	}
}

func TestRenderEmpty(t *testing.T) {
	out := Render(PlotOptions{Title: "empty"})
	if !strings.Contains(out, "(no data)") {
		t.Fatalf("out = %q", out)
	}
	// all-NaN series also yields no data
	s := mkSeries("nan", [2]float64{1, math.NaN()})
	if !strings.Contains(Render(PlotOptions{}, s), "(no data)") {
		t.Fatal("NaN-only series should render as no data")
	}
}

func TestRenderLogY(t *testing.T) {
	s := mkSeries("exp", [2]float64{0, 1}, [2]float64{1, 100}, [2]float64{2, 10000})
	out := Render(PlotOptions{LogY: true}, s)
	// On a log axis the three points form a straight diagonal: the middle
	// one lands halfway along each axis, rounded toward the bottom left.
	lines := strings.Split(out, "\n")
	find := func(row int) int {
		line := lines[row]
		idx := strings.Index(line, "|")
		return strings.IndexRune(line[idx+1:], '*')
	}
	if c := find(plotHeight - 1); c != 0 {
		t.Fatalf("bottom point at col %d, want 0", c)
	}
	if mid, c := (plotWidth-1)/2, find(plotHeight-1-(plotHeight-1)/2); c != mid {
		t.Fatalf("middle point at col %d, want %d", c, mid)
	}
	if c := find(0); c != plotWidth-1 {
		t.Fatalf("top point at col %d, want %d", c, plotWidth-1)
	}
	if !strings.Contains(out, "e+") {
		t.Fatal("log axis labels should be scientific")
	}
}

func TestRenderLogYSkipsNonPositive(t *testing.T) {
	s := mkSeries("mix", [2]float64{0, 0}, [2]float64{1, -5}, [2]float64{2, 10})
	out := Render(PlotOptions{LogY: true}, s)
	if strings.Contains(out, "(no data)") {
		t.Fatal("positive points should still render")
	}
	count := 0
	for _, line := range strings.Split(out, "\n") {
		if idx := strings.Index(line, "|"); idx >= 0 {
			count += strings.Count(line[idx:], "*")
		}
	}
	if count != 1 {
		t.Fatalf("marker count = %d, want 1 (non-positive skipped)", count)
	}
}

func TestRenderFixedYRange(t *testing.T) {
	s := mkSeries("s", [2]float64{0, 5}, [2]float64{1, 6})
	out := Render(PlotOptions{YMin: 0, YMax: 10}, s)
	if !strings.Contains(out, "10") {
		t.Fatalf("fixed y max not applied: %q", out)
	}
}

func TestRenderMultiSeriesMarkers(t *testing.T) {
	a := mkSeries("a", [2]float64{0, 0})
	b := mkSeries("b", [2]float64{1, 1})
	out := Render(PlotOptions{}, a, b)
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Fatal("distinct markers not used")
	}
	if !strings.Contains(out, "[*] a") || !strings.Contains(out, "[+] b") {
		t.Fatal("legend incomplete")
	}
}

func TestRenderConstantSeries(t *testing.T) {
	s := mkSeries("flat", [2]float64{0, 5}, [2]float64{1, 5}, [2]float64{2, 5})
	out := Render(PlotOptions{}, s)
	if strings.Contains(out, "(no data)") {
		t.Fatal("constant series should render")
	}
	if strings.Count(out, "*") == 0 {
		t.Fatal("constant series markers missing")
	}
}
