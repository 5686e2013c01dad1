// Package experiments contains one driver per figure in the paper's
// evaluation, plus drivers for its in-text quantitative claims and for
// the ablations listed in DESIGN.md. Each driver returns a Result holding
// typed series, render options and headline notes; cmd/figures renders
// all of them to CSV and ASCII, and bench_test.go wraps each one in a
// benchmark.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"routesync/internal/netsim"
	"routesync/internal/periodic"
	"routesync/internal/runner"
	"routesync/internal/stats"
	"routesync/internal/trace"
)

// Result is one regenerated figure.
type Result struct {
	// ID is the figure identifier, e.g. "fig04".
	ID string
	// Title describes the figure, mirroring the paper's caption.
	Title string
	// Series holds the figure's data.
	Series []stats.Series
	// Notes records headline measurements ("synchronized after 826
	// rounds") for EXPERIMENTS.md.
	Notes []string
	// Plot carries rendering hints.
	Plot trace.PlotOptions
	// Counts is the work of the engines the driver ran, read from each
	// engine once its run ended; the manifest records it.
	Counts runner.Counts
}

// addRounds adds the cluster firings of model systems that have run to
// r's counts.
func (r *Result) addRounds(systems ...*periodic.System) {
	for _, s := range systems {
		r.Counts.Rounds += s.Rounds()
	}
}

// netCounts reads the work of a network's engines over its runs.
func netCounts(nw *netsim.Network) runner.Counts {
	return runner.Counts{Events: nw.Counts(), Windows: nw.SyncStats().Windows}
}

// Notef appends a formatted note.
func (r *Result) Notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// RenderASCII draws the figure as text.
func (r *Result) RenderASCII() string {
	opt := r.Plot
	if opt.Title == "" {
		opt.Title = fmt.Sprintf("%s — %s", r.ID, r.Title)
	}
	var b strings.Builder
	b.WriteString(trace.Render(opt, r.Series...))
	for _, n := range r.Notes {
		b.WriteString("note: ")
		b.WriteString(n)
		b.WriteByte('\n')
	}
	return b.String()
}

// WriteFiles writes <id>.csv and <id>.txt into dir, creating it if needed.
func (r *Result) WriteFiles(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	csv, err := os.Create(filepath.Join(dir, r.ID+".csv"))
	if err != nil {
		return err
	}
	defer csv.Close()
	if err := trace.WriteCSV(csv, r.Series...); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, r.ID+".txt"), []byte(r.RenderASCII()), 0o644)
}
