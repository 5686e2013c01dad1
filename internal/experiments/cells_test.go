package experiments

import (
	"sync"
	"testing"
)

// TestCellBudget pins the split of a worker budget over sweep cells:
// cells first, leftover workers as logical processes per cell.
func TestCellBudget(t *testing.T) {
	for _, c := range []struct{ n, w, conc, k int }{
		{1, 2, 1, 2}, // one cell takes both workers as LPs
		{2, 2, 2, 1},
		{3, 2, 2, 1},
		{8, 3, 3, 1},
	} {
		if conc, k := cellBudget(c.n, c.w); conc != c.conc || k != c.k {
			t.Errorf("cellBudget(n=%d, w=%d) = (%d, %d), want (%d, %d)", c.n, c.w, conc, k, c.conc, c.k)
		}
	}
}

// TestRunCellsIndexOrder makes the cells finish in reverse index order —
// cell i waits for cell i+1 — and requires results in index order, with
// every cell handed the budget's LP count.
func TestRunCellsIndexOrder(t *testing.T) {
	const n = 4
	var done [n]chan struct{}
	for i := range done {
		done[i] = make(chan struct{})
	}
	var mu sync.Mutex
	var finished []int
	got := runCells(n, n, func(i, k int) [2]int {
		if i+1 < n {
			<-done[i+1]
		}
		mu.Lock()
		finished = append(finished, i)
		mu.Unlock()
		close(done[i])
		return [2]int{i, k}
	})
	for i, r := range got {
		if r != [2]int{i, 1} {
			t.Errorf("result %d = (cell %d, k=%d), want (cell %d, k=1)", i, r[0], r[1], i)
		}
	}
	if finished[0] != n-1 {
		t.Errorf("cells finished in order %v, want the last cell first", finished)
	}
}
