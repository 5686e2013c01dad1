// Package parallel is the repository's deterministic bounded job
// runner. The paper's evaluation is a batch of independent figure
// drivers, each of which is itself a batch of independent simulation
// replications; both layers parallelize cleanly as long as per-run
// randomness is partitioned up front (the paper's [Ca90] Park–Miller
// streams split into independent per-index streams) and results are
// reassembled in index order.
//
// Every function here guarantees: given a deterministic fn, the returned
// slice — and, for RunOrdered, the emit sequence — is byte-identical
// regardless of the worker count, including jobs=1. Worker scheduling
// can change *when* fn(i) runs, never *what* it computes or where its
// result lands.
package parallel

import "runtime"

// Workers normalizes a jobs request: values <= 0 mean one worker per
// available CPU (runtime.GOMAXPROCS).
func Workers(jobs int) int {
	if jobs <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return jobs
}

// Run executes fn(i) for i in [0, n) on at most jobs concurrent workers
// (jobs <= 0 means one per CPU) and returns the results in index order.
// fn must not depend on shared mutable state; everything it needs should
// be derived from i.
func Run[T any](n, jobs int, fn func(i int) T) []T {
	return RunOrdered(n, jobs, fn, nil)
}

// RunOrdered is Run plus an in-order consumer: emit(i, result) is called
// from the caller's goroutine in strict index order, as soon as result i
// and all results before it are available — so a slow job 0 delays
// emission but not computation of jobs 1..n−1. A nil emit is allowed.
func RunOrdered[T any](n, jobs int, fn func(i int) T, emit func(i int, v T)) []T {
	if n <= 0 {
		return nil
	}
	jobs = Workers(jobs)
	out := make([]T, n)
	ready := make([]chan struct{}, n)
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	sem := make(chan struct{}, jobs)
	go func() {
		for i := 0; i < n; i++ {
			i := i
			sem <- struct{}{}
			go func() {
				defer func() { <-sem }()
				out[i] = fn(i)
				close(ready[i])
			}()
		}
	}()
	for i := 0; i < n; i++ {
		<-ready[i]
		if emit != nil {
			emit(i, out[i])
		}
	}
	return out
}
