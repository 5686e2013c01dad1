package ring

import "testing"

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	fn()
}

// TestFIFOHeadReuse: a drained ring keeps its array, so draining and
// refilling to the same length never allocates.
func TestFIFOHeadReuse(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 3; i++ {
		r.Push(i)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	for i := 0; i < 3; i++ {
		if got := r.Pop(); got != i {
			t.Fatalf("Pop #%d = %d, want %d", i, got, i)
		}
	}
	if r.Len() != 0 || len(r.buf) != 4 {
		t.Fatalf("after drain: len=%d cap=%d, want 0 and the array kept at 4", r.Len(), len(r.buf))
	}

	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 3; i++ {
			r.Push(i)
		}
		for i := 0; i < 3; i++ {
			r.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state push/pop allocates %.1f/op, want 0", allocs)
	}
	if len(r.buf) != 4 {
		t.Fatalf("cap = %d after drain/refill cycles, want 4", len(r.buf))
	}

	mustPanic(t, "pop empty", func() { r.Pop() })
}

// TestSustainedBacklog: a queue that never drains — each push answered
// by a pop, at most 3 items queued — keeps its capacity at the peak
// length's power of two instead of growing with the number of pushes.
func TestSustainedBacklog(t *testing.T) {
	var r Ring[int]
	next, want := 0, 0
	pushPop := func() {
		r.Push(next)
		next++
		if r.Len() == 3 {
			if got := r.Pop(); got != want {
				t.Fatalf("Pop = %d, want %d", got, want)
			}
			want++
		}
	}
	for i := 0; i < 3; i++ {
		pushPop()
	}
	allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 10_000; i++ {
			pushPop()
		}
	})
	if allocs != 0 {
		t.Fatalf("backlog push/pop allocates %.1f per 10k, want 0", allocs)
	}
	if next < 100_000 {
		t.Fatalf("only %d pushes ran", next)
	}
	if r.Len() == 0 || len(r.buf) > 4 {
		t.Fatalf("after %d pushes: len=%d cap=%d, want a non-empty queue within cap 4", next, r.Len(), len(r.buf))
	}
}

// TestWrapAroundGrowth grows the ring while its head sits mid-array and
// the queue wraps past the end, then checks the items leave in push
// order.
func TestWrapAroundGrowth(t *testing.T) {
	var r Ring[int]
	next, want := 0, 0
	for ; next < 8; next++ {
		r.Push(next)
	}
	for ; want < 5; want++ {
		r.Pop()
	}
	for ; next < 13; next++ { // wraps: head 5, five items past the end
		r.Push(next)
	}
	if r.head != 5 || r.Len() != 8 || len(r.buf) != 8 {
		t.Fatalf("before growth: head=%d len=%d cap=%d, want 5, 8, 8", r.head, r.Len(), len(r.buf))
	}
	for ; next < 20; next++ {
		r.Push(next)
	}
	if len(r.buf) != 16 {
		t.Fatalf("cap = %d after growing past 8, want 16", len(r.buf))
	}
	for r.Len() > 0 {
		if got := r.Pop(); got != want {
			t.Fatalf("Pop = %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped up to %d, pushed up to %d", want, next)
	}
}
