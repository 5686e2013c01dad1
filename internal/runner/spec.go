package runner

import (
	"sync"

	"routesync/internal/des"
	"routesync/internal/periodic"
)

// Spec carries everything an experiment Run function may depend on.
// Quick and the experiment's id form the params hash that drives
// incremental re-runs; the other fields must not change the artifacts.
type Spec struct {
	// Quick selects reduced horizons and replication counts.
	Quick bool
	// Jobs bounds inner-replication parallelism (internal/parallel
	// semantics: 0 means one worker per CPU). Never affects output.
	Jobs int
	// OutDir is where the experiment writes its files.
	OutDir string
	// Metrics, when non-nil, accumulates engine observer counts for the
	// manifest metrics block.
	Metrics *Metrics

	shared *sharedCache
}

// DESObserver returns the Spec's metrics as a des.Observer, or an
// untyped nil when metrics are off. Always use this helper rather than
// assigning Spec.Metrics directly: a nil *Metrics stored in an interface
// is a non-nil interface, which would defeat the engines' nil check.
func (s *Spec) DESObserver() des.Observer {
	if s == nil || s.Metrics == nil {
		return nil
	}
	return s.Metrics
}

// PeriodicObserver returns the Spec's metrics as a periodic.Observer, or
// an untyped nil when metrics are off.
func (s *Spec) PeriodicObserver() periodic.Observer {
	if s == nil || s.Metrics == nil {
		return nil
	}
	return s.Metrics
}

// Shared memoizes compute under key for the duration of one runner.Run
// invocation: the first caller computes, concurrent and later callers
// get the same value. Figures 1 and 2 share one packet-level ping run
// this way, so `-only fig02` works without also running fig01, and two
// runner invocations in one process don't leak state into each other
// (unlike a package-level sync.Once).
func (s *Spec) Shared(key string, compute func() any) any {
	if s.shared == nil {
		// Standalone Spec (tests, direct experiment calls): no cross-
		// experiment sharing, just compute.
		return compute()
	}
	return s.shared.get(key, compute)
}

// sharedCache is a per-invocation key→value memo. Each key's compute
// runs exactly once even under concurrent access; the per-entry
// sync.Once keeps one slow compute from serializing unrelated keys.
type sharedCache struct {
	mu      sync.Mutex
	entries map[string]*sharedEntry
}

type sharedEntry struct {
	once sync.Once
	val  any
}

func newSharedCache() *sharedCache {
	return &sharedCache{entries: map[string]*sharedEntry{}}
}

func (c *sharedCache) get(key string, compute func() any) any {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &sharedEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.val = compute() })
	return e.val
}
