package runner

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"routesync/internal/parallel"
)

// Artifacts is what one experiment run hands back to the runner:
// everything needed for the per-experiment stdout block, INDEX.md,
// TIMINGS.json, and the manifest entry.
type Artifacts struct {
	// Title is the human-readable name.
	Title string
	// Notes are the headline findings printed under the experiment and
	// recorded in INDEX.md and the manifest.
	Notes []string
	// Series and Points count the emitted data for TIMINGS.json.
	Series int
	Points int
	// Files lists the names (relative to Spec.OutDir) this run wrote.
	Files []string
	// Counts is the work the run's engines did, recorded as the
	// manifest's metrics block.
	Counts Counts
}

// DriverTiming is one entry of TIMINGS.json (schema unchanged from when
// cmd/figures owned it).
type DriverTiming struct {
	ID      string  `json:"id"`
	Title   string  `json:"title"`
	Seconds float64 `json:"seconds"`
	Series  int     `json:"series"`
	Points  int     `json:"points"`
}

// TimingsFile is the TIMINGS.json schema: enough to track pipeline
// speedups across PRs the way the BENCH_*.json trajectories do.
type TimingsFile struct {
	Quick        bool           `json:"quick"`
	Jobs         int            `json:"jobs"`
	Workers      int            `json:"workers"`
	TotalSeconds float64        `json:"total_seconds"`
	Drivers      []DriverTiming `json:"drivers"`
}

// Options parameterize one runner invocation.
type Options struct {
	// Registry to select from; nil means Default.
	Registry *Registry
	// Only is the comma-separated -only id filter; unknown ids are an
	// error.
	Only string
	// OutDir receives emitted files, INDEX.md, TIMINGS.json, and
	// MANIFEST.json.
	OutDir string
	// Quick and Jobs flow into each experiment's Spec.
	Quick bool
	Jobs  int
	// Force disables the incremental skip: every selected experiment
	// re-runs even if its manifest entry is up to date.
	Force bool
	// Stdout, when non-nil, receives the per-experiment progress blocks
	// (`== id (title, 123ms)` plus notes) in registration order.
	Stdout io.Writer
	// Errout receives per-experiment failures as they are observed; nil
	// means os.Stderr. The run continues past failures (matching the old
	// cmd/figures behavior) but reports them in Run's error.
	Errout io.Writer
}

// Summary reports what one invocation did.
type Summary struct {
	// Experiments holds the selected experiments in emission order.
	Experiments []*Experiment
	// Cached counts experiments skipped as up to date.
	Cached int
	// Failed counts experiments whose Run returned an error.
	Failed int
	// Partial reports whether the selection was a subset of the pool (a
	// partial run never rewrites INDEX.md or TIMINGS.json).
	Partial bool
	// Total is the invocation's wall time; Workers the worker bound.
	Total   time.Duration
	Workers int
}

// expRun is what one worker hands back to the in-order consumer.
type expRun struct {
	art     *Artifacts
	entry   *ManifestEntry
	err     error
	cached  bool
	seconds float64
}

// Run executes the selected experiments on at most Jobs workers, in
// registration order for selection and emission, with per-experiment
// incremental skipping against OutDir's manifest.
//
// Output files, stdout blocks, and INDEX.md are byte-identical for any
// Jobs value; a full non-quick run additionally rewrites TIMINGS.json
// and the manifest. Returns the summary and an error if any experiment
// failed or the bookkeeping writes failed.
func Run(opts Options) (*Summary, error) {
	reg := opts.Registry
	if reg == nil {
		reg = Default
	}
	errout := opts.Errout
	if errout == nil {
		errout = os.Stderr
	}

	active, err := reg.Select(opts.Only)
	if err != nil {
		return nil, err
	}

	sum := &Summary{
		Experiments: active,
		Partial:     len(active) != len(reg.order),
		Workers:     resolvedWorkers(opts.Jobs, len(active)),
	}

	// The manifest loaded here is read-only for the duration of the run:
	// workers consult it for skip decisions while the consumer
	// accumulates fresh entries separately, then the two are merged.
	if err := os.MkdirAll(opts.OutDir, 0o755); err != nil {
		return sum, err
	}
	manifest := LoadManifest(opts.OutDir)
	codeVersion := CodeVersion()

	shared := newSharedCache()

	var index strings.Builder
	index.WriteString("# Regenerated figures\n\n")
	var perDriver []DriverTiming
	updates := map[string]*ManifestEntry{}

	t0 := time.Now()
	parallel.RunOrdered(len(active), opts.Jobs, func(i int) expRun {
		e := active[i]
		paramsHash := ParamsHash(e.ID, opts.Quick)
		if !opts.Force {
			if old := manifest.Experiments[e.ID]; old.UpToDate(opts.OutDir, paramsHash, codeVersion) {
				return expRun{art: old.artifacts(), entry: old, cached: true}
			}
		}
		spec := &Spec{
			Quick:  opts.Quick,
			Jobs:   opts.Jobs,
			OutDir: opts.OutDir,
			shared: shared,
		}
		start := time.Now()
		art, err := e.Run(spec)
		seconds := time.Since(start).Seconds()
		if err != nil {
			return expRun{err: fmt.Errorf("%s: %w", e.ID, err), seconds: seconds}
		}
		entry := &ManifestEntry{
			Title:       art.Title,
			ParamsHash:  paramsHash,
			CodeVersion: codeVersion,
			Quick:       opts.Quick,
			WallSeconds: seconds,
			Series:      art.Series,
			Points:      art.Points,
			Notes:       art.Notes,
			Files:       map[string]string{},
			Metrics:     art.Counts.snapshot(),
		}
		for _, name := range art.Files {
			h, herr := HashFile(filepath.Join(opts.OutDir, name))
			if herr != nil {
				return expRun{err: fmt.Errorf("%s: %w", e.ID, herr), seconds: seconds}
			}
			entry.Files[name] = h
		}
		return expRun{art: art, entry: entry, seconds: seconds}
	}, func(i int, run expRun) {
		e := active[i]
		if run.err != nil {
			fmt.Fprintln(errout, run.err)
			sum.Failed++
			return
		}
		art := run.art
		seconds := run.seconds
		if run.cached {
			sum.Cached++
			seconds = run.entry.WallSeconds
			if opts.Stdout != nil {
				fmt.Fprintf(opts.Stdout, "== %s (%s, cached)\n", e.ID, art.Title)
			}
		} else if opts.Stdout != nil {
			fmt.Fprintf(opts.Stdout, "== %s (%s, %v)\n", e.ID, art.Title,
				time.Duration(run.seconds*float64(time.Second)).Round(time.Millisecond))
		}
		if opts.Stdout != nil {
			for _, n := range art.Notes {
				fmt.Fprintln(opts.Stdout, "   ", n)
			}
		}
		updates[e.ID] = run.entry
		perDriver = append(perDriver, DriverTiming{
			ID: e.ID, Title: art.Title, Seconds: seconds,
			Series: art.Series, Points: art.Points,
		})
		fmt.Fprintf(&index, "## %s — %s\n\n", e.ID, art.Title)
		for _, n := range art.Notes {
			fmt.Fprintf(&index, "- %s\n", n)
		}
		fmt.Fprintf(&index, "- files: [`%s.csv`](%s.csv), [`%s.txt`](%s.txt)\n\n", e.ID, e.ID, e.ID, e.ID)
	})
	sum.Total = time.Since(t0)

	if sum.Failed > 0 {
		return sum, fmt.Errorf("%d of %d experiments failed", sum.Failed, len(active))
	}

	// A partial -only run must not clobber the full-run index or the
	// full-run timing trajectory, but its manifest entries are still
	// merged in — that is what makes iterating on one figure cheap.
	if !sum.Partial {
		if err := os.WriteFile(filepath.Join(opts.OutDir, "INDEX.md"), []byte(index.String()), 0o644); err != nil {
			return sum, err
		}
		// Sorted by id so the file diffs cleanly across PRs even when
		// registration order changes.
		sort.Slice(perDriver, func(i, j int) bool { return perDriver[i].ID < perDriver[j].ID })
		tf := TimingsFile{
			Quick:        opts.Quick,
			Jobs:         opts.Jobs,
			Workers:      sum.Workers,
			TotalSeconds: sum.Total.Seconds(),
			Drivers:      perDriver,
		}
		buf, err := json.MarshalIndent(tf, "", "  ")
		if err != nil {
			return sum, err
		}
		if err := os.WriteFile(filepath.Join(opts.OutDir, "TIMINGS.json"), append(buf, '\n'), 0o644); err != nil {
			return sum, err
		}
	}
	for id, entry := range updates {
		manifest.Experiments[id] = entry
	}
	if err := manifest.Write(opts.OutDir); err != nil {
		return sum, err
	}
	return sum, nil
}

// resolvedWorkers is the worker count the invocation actually runs with:
// the normalized -jobs request, clamped to the number of selected
// experiments — a -jobs 8 run of three experiments never has more than
// three workers busy, and that is the number Summary and TIMINGS.json
// should report.
func resolvedWorkers(jobs, experiments int) int {
	w := parallel.Workers(jobs)
	if experiments > 0 && w > experiments {
		w = experiments
	}
	return w
}

// artifacts reconstructs displayable artifacts from a manifest entry so
// a cached experiment still contributes to stdout, INDEX.md, and
// TIMINGS.json.
func (e *ManifestEntry) artifacts() *Artifacts {
	return &Artifacts{
		Title:  e.Title,
		Notes:  e.Notes,
		Series: e.Series,
		Points: e.Points,
	}
}
