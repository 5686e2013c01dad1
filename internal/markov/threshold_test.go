package markov

import (
	"math"
	"testing"
)

// CriticalN locates the router count at which the network flips from
// predominately unsynchronized to predominately synchronized for a fixed
// Tr — the paper's "the addition of a single router will convert a
// completely unsynchronized traffic stream into a completely synchronized
// one" (§1), as a function. It returns the smallest N in [2, maxN] whose
// fraction unsynchronized is below 1/2, or (0, false) if none is.
func CriticalN(tp, tr, tc float64, maxN int) (int, bool) {
	if tp <= 0 || tr < 0 || tc <= 0 || maxN < 2 {
		panic("markov: CriticalN needs positive parameters and maxN >= 2")
	}
	// The fraction is monotone nonincreasing in N; binary search the
	// first N below 1/2.
	frac := func(n int) float64 {
		ch, err := New(Params{N: n, Tp: tp, Tr: tr, Tc: tc})
		if err != nil {
			return math.NaN()
		}
		return ch.FractionUnsynchronized()
	}
	if frac(maxN) >= 0.5 {
		return 0, false
	}
	lo, hi := 2, maxN // frac(lo) may already be < 0.5
	if frac(lo) < 0.5 {
		return lo, true
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if frac(mid) < 0.5 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true
}

func TestCriticalTrPaperParams(t *testing.T) {
	// For the paper's N=20, Tp=121, Tc=0.11 the Fig 14 transition sits
	// near 1.9·Tc.
	tr, ok := CriticalTr(20, 121, 0.11, 0)
	if !ok {
		t.Fatalf("no threshold found: %v", tr)
	}
	mult := tr / 0.11
	if mult < 1.5 || mult > 2.3 {
		t.Fatalf("critical Tr = %.3f (%.2f·Tc), want ~1.9·Tc", tr, mult)
	}
	// Verify it is actually the crossing.
	below, _ := New(Params{N: 20, Tp: 121, Tr: tr * 0.95, Tc: 0.11})
	above, _ := New(Params{N: 20, Tp: 121, Tr: tr * 1.05, Tc: 0.11})
	if below.FractionUnsynchronized() >= 0.5 {
		t.Fatalf("fraction below threshold = %v", below.FractionUnsynchronized())
	}
	if above.FractionUnsynchronized() < 0.5 {
		t.Fatalf("fraction above threshold = %v", above.FractionUnsynchronized())
	}
}

func TestCriticalTrGrowsWithN(t *testing.T) {
	// More routers need more randomness to stay unsynchronized.
	prev := 0.0
	for _, n := range []int{10, 20, 30, 40} {
		tr, ok := CriticalTr(n, 121, 0.11, 0)
		if !ok {
			t.Fatalf("no threshold at N=%d", n)
		}
		if tr <= prev {
			t.Fatalf("critical Tr not increasing: N=%d gives %v after %v", n, tr, prev)
		}
		prev = tr
	}
}

func TestCriticalTrPARCExample(t *testing.T) {
	// The §1 worked example: Tp=90, Tc=0.3 → threshold near 1 s.
	tr, ok := CriticalTr(20, 90, 0.3, 0)
	if !ok {
		t.Fatal("no threshold for PARC parameters")
	}
	if tr < 0.5 || tr > 1.5 {
		t.Fatalf("PARC critical Tr = %v, want ~1 s", tr)
	}
}

func TestCriticalTrNoBracket(t *testing.T) {
	// A tiny hi bracket below the threshold reports +Inf, not a bogus value.
	tr, ok := CriticalTr(20, 121, 0.11, 0.12)
	if ok || !math.IsInf(tr, 1) {
		t.Fatalf("got %v, %v; want +Inf, false", tr, ok)
	}
}

func TestCriticalNPaperParams(t *testing.T) {
	// Fig 15: at Tr=0.3, the flip happens near N=27.
	n, ok := CriticalN(121, 0.3, 0.11, 100)
	if !ok {
		t.Fatal("no critical N found")
	}
	if n < 25 || n > 29 {
		t.Fatalf("critical N = %d, want ~27", n)
	}
	// Check the flip property at the boundary.
	below, _ := New(Params{N: n - 1, Tp: 121, Tr: 0.3, Tc: 0.11})
	at, _ := New(Params{N: n, Tp: 121, Tr: 0.3, Tc: 0.11})
	if below.FractionUnsynchronized() < 0.5 {
		t.Fatalf("N-1 already synchronized: %v", below.FractionUnsynchronized())
	}
	if at.FractionUnsynchronized() >= 0.5 {
		t.Fatalf("N not synchronized: %v", at.FractionUnsynchronized())
	}
}

func TestCriticalNNotFound(t *testing.T) {
	// Massive jitter: no reasonable N synchronizes.
	n, ok := CriticalN(121, 60, 0.11, 60)
	if ok || n != 0 {
		t.Fatalf("got %d, %v; want 0, false", n, ok)
	}
}

func TestCriticalPanics(t *testing.T) {
	for _, f := range []func(){
		func() { CriticalTr(1, 121, 0.11, 0) },
		func() { CriticalTr(20, 0, 0.11, 0) },
		func() { CriticalN(121, 0.3, 0.11, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
