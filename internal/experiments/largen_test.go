package experiments

import "testing"

// TestExtLargeNMetastability runs a reduced sweep and checks the shape
// that makes the extension worth plotting: below the 3·Tc nucleation
// boundary the Markov equilibrium is fully synchronized at every N, a
// synchronized start holds its majority, and an unsynchronized start
// never nucleates one within the observed rounds.
func TestExtLargeNMetastability(t *testing.T) {
	ns := []int{200, 2000}
	rounds := 8
	if testing.Short() {
		ns = []int{200}
	}
	r := ExtLargeN(ns, rounds, 1)
	if len(r.Series) != 4 {
		t.Fatalf("series = %d, want 4", len(r.Series))
	}
	sync, unsync, pred, largest := r.Series[0], r.Series[1], r.Series[2], r.Series[3]
	for _, s := range []struct {
		name string
		y    []float64
	}{{"sync", sync.Y}, {"unsync", unsync.Y}, {"pred", pred.Y}, {"largest", largest.Y}} {
		if len(s.y) != len(ns) {
			t.Fatalf("%s series has %d points, want %d", s.name, len(s.y), len(ns))
		}
	}
	for i := range ns {
		if sync.Y[i] != 1 {
			t.Errorf("N=%d: synchronized start lost its majority (fraction %v)", ns[i], sync.Y[i])
		}
		if unsync.Y[i] != 0 {
			t.Errorf("N=%d: unsynchronized start nucleated a majority (fraction %v)", ns[i], unsync.Y[i])
		}
		if pred.Y[i] < 0.99 {
			t.Errorf("N=%d: equilibrium prediction %v, want ≈1 below the nucleation boundary", ns[i], pred.Y[i])
		}
		if largest.Y[i] <= 0 || largest.Y[i] > 1 {
			t.Errorf("N=%d: mean largest/N %v out of (0,1]", ns[i], largest.Y[i])
		}
	}
}

// TestExtLargeNDeterministic pins run-to-run reproducibility: two calls
// with the same seed must agree bit for bit (the runner's incremental
// re-run machinery depends on it).
func TestExtLargeNDeterministic(t *testing.T) {
	a := ExtLargeN([]int{300}, 6, 3)
	b := ExtLargeN([]int{300}, 6, 3)
	if len(a.Series) != len(b.Series) {
		t.Fatalf("series count diverged: %d vs %d", len(a.Series), len(b.Series))
	}
	for i := range a.Series {
		sa, sb := a.Series[i], b.Series[i]
		for j := range sa.Y {
			if sa.X[j] != sb.X[j] || sa.Y[j] != sb.Y[j] {
				t.Fatalf("series %q point %d diverged: (%v,%v) vs (%v,%v)",
					sa.Name, j, sa.X[j], sa.Y[j], sb.X[j], sb.Y[j])
			}
		}
	}
	for i := range a.Notes {
		if a.Notes[i] != b.Notes[i] {
			t.Fatalf("note %d diverged:\n%s\n%s", i, a.Notes[i], b.Notes[i])
		}
	}
}
