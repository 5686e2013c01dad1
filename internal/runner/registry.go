// Package runner is the experiment-management layer behind cmd/figures:
// a registry of named experiments, a Spec→Artifacts run contract,
// MANIFEST.json provenance (params hash, code version, git describe,
// wall time, content hash of every emitted file), incremental re-runs
// that skip up-to-date experiments, and the manifest's metrics block:
// the Counts each experiment reads from its engines once its runs end.
//
// It owns -only selection, -jobs scheduling with output in registration
// order, TIMINGS.json bookkeeping, and partial-run index protection. The
// other command-line tools call their engines directly.
package runner

import (
	"fmt"
	"sort"
	"strings"
)

// Experiment is one registered, runnable unit: a figure driver, a
// claim, an ablation, or an extension.
type Experiment struct {
	// ID is the unique handle used by -only and manifest entries.
	ID string
	// Run computes the experiment. It must be deterministic in the Spec:
	// equal Spec fields (ignoring Jobs) must reproduce identical artifacts.
	Run func(*Spec) (*Artifacts, error)
}

// Registry holds experiments in registration order.
type Registry struct {
	byID  map[string]*Experiment
	order []*Experiment
}

// Default is the package-level registry that internal/experiments
// populates at init time and cmd/figures selects from.
var Default = NewRegistry()

// NewRegistry returns an empty registry (tests use fresh instances).
func NewRegistry() *Registry {
	return &Registry{byID: map[string]*Experiment{}}
}

// Register adds an experiment. It panics on an empty id, a nil Run, or a
// duplicate id — registration happens at init time, and a collision is a
// programming error that must fail loudly, not a runtime condition.
func (r *Registry) Register(e Experiment) {
	if e.ID == "" {
		panic("runner: Register with empty experiment id")
	}
	if e.Run == nil {
		panic(fmt.Sprintf("runner: Register(%q) with nil Run", e.ID))
	}
	if _, dup := r.byID[e.ID]; dup {
		panic(fmt.Sprintf("runner: duplicate experiment id %q", e.ID))
	}
	exp := e
	r.byID[e.ID] = &exp
	r.order = append(r.order, &exp)
}

// All returns every experiment in registration order.
func (r *Registry) All() []*Experiment {
	return append([]*Experiment(nil), r.order...)
}

// Select filters the experiments by a comma-separated id list,
// preserving registration order. An empty list selects all of them.
// Unknown ids are an error, not a silent no-op: a typo like `-only fig4`
// must fail loudly instead of reporting success having run nothing.
func (r *Registry) Select(only string) ([]*Experiment, error) {
	pool := r.All()
	if strings.TrimSpace(only) == "" {
		return pool, nil
	}
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[id] = true
		}
	}
	known := map[string]bool{}
	var active []*Experiment
	for _, e := range pool {
		known[e.ID] = true
		if want[e.ID] {
			active = append(active, e)
		}
	}
	var unknown []string
	for id := range want {
		if !known[id] {
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		ids := make([]string, len(pool))
		for i, e := range pool {
			ids[i] = e.ID
		}
		return nil, fmt.Errorf("unknown figure id(s): %s\nknown ids: %s",
			strings.Join(unknown, ", "), strings.Join(ids, ", "))
	}
	if len(active) == 0 {
		return nil, fmt.Errorf("-only selected no figures")
	}
	return active, nil
}
