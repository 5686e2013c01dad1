package experiments

import "routesync/internal/parallel"

// runCells runs the n independent cells of a sweep driver within a
// worker budget of jobs (0: one per CPU) and returns their results in
// index order. Whole cells are the cheapest unit of parallelism — they
// share nothing and never synchronize — so the budget goes to cells
// first: conc of them run at a time, and each gets the k leftover
// workers as logical processes (see cellBudget). fn(i, k) must derive
// everything it computes from i; the K-invariance of the partitioned
// engine makes its result independent of k, so the assembled artifacts
// are byte-identical for every jobs value.
func runCells[T any](n, jobs int, fn func(i, k int) T) []T {
	conc, k := cellBudget(n, parallel.Workers(jobs))
	return parallel.Run(n, conc, func(i int) T { return fn(i, k) })
}

// cellBudget splits w workers over n cells: conc = min(w, n) cells run
// concurrently, each partitioned into k = w/conc logical processes.
func cellBudget(n, w int) (conc, k int) {
	conc = max(min(w, n), 1) // n = 0 still yields a valid divisor
	return conc, w / conc
}
