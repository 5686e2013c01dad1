package jitter

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"routesync/internal/rng"
)

func TestNone(t *testing.T) {
	p := None{Tp: 121}
	r := rng.New(1)
	for i := 0; i < 10; i++ {
		if d := p.Delay(r, i); d != 121 {
			t.Fatalf("None delay = %v", d)
		}
	}
	if p.Mean() != 121 {
		t.Fatalf("Mean = %v", p.Mean())
	}
	if !strings.Contains(p.String(), "none") {
		t.Fatalf("String = %q", p.String())
	}
}

func TestUniformRange(t *testing.T) {
	p := Uniform{Tp: 121, Tr: 0.11}
	r := rng.New(2)
	var min, max = math.Inf(1), math.Inf(-1)
	for i := 0; i < 20000; i++ {
		d := p.Delay(r, 0)
		if d < 120.89 || d >= 121.11 {
			t.Fatalf("delay %v outside [Tp-Tr, Tp+Tr)", d)
		}
		min, max = math.Min(min, d), math.Max(max, d)
	}
	if min > 120.90 || max < 121.10 {
		t.Fatalf("draws do not cover the window: [%v, %v]", min, max)
	}
	if p.Mean() != 121 {
		t.Fatalf("Mean = %v", p.Mean())
	}
}

func TestUniformMeanEmpirical(t *testing.T) {
	p := Uniform{Tp: 30, Tr: 15}
	r := rng.New(3)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += p.Delay(r, 0)
	}
	if got := sum / n; math.Abs(got-30) > 0.1 {
		t.Fatalf("empirical mean %v, want ~30", got)
	}
}

func TestHalfSpreadMatchesPaper(t *testing.T) {
	// §6: "setting the timer each round to a time from the uniform
	// distribution on [0.5·Tp, 1.5·Tp]".
	p := HalfSpread{Tp: 90}
	r := rng.New(4)
	for i := 0; i < 20000; i++ {
		d := p.Delay(r, 0)
		if d < 45 || d >= 135 {
			t.Fatalf("HalfSpread delay %v outside [45, 135)", d)
		}
	}
	if p.Mean() != 90 {
		t.Fatalf("Mean = %v", p.Mean())
	}
}

func TestHalfSpreadEquivalentToUniformTpHalf(t *testing.T) {
	// HalfSpread{Tp} and Uniform{Tp, Tp/2} draw identically from the same
	// stream.
	h := HalfSpread{Tp: 121}
	u := Uniform{Tp: 121, Tr: 60.5}
	ra, rb := rng.New(5), rng.New(5)
	for i := 0; i < 1000; i++ {
		if h.Delay(ra, 0) != u.Delay(rb, 0) {
			t.Fatal("HalfSpread diverged from Uniform{Tp, Tp/2}")
		}
	}
}

func TestPerRouterFixedStableOffsets(t *testing.T) {
	p := NewPerRouterFixed(121, 5, 7)
	r := rng.New(1)
	d3a := p.Delay(r, 3)
	d5 := p.Delay(r, 5)
	d3b := p.Delay(r, 3)
	if d3a != d3b {
		t.Fatalf("router 3 delay changed: %v vs %v", d3a, d3b)
	}
	if d3a == d5 {
		t.Fatal("distinct routers got identical offsets (possible but vanishingly unlikely)")
	}
	if d3a < 116 || d3a >= 126 {
		t.Fatalf("offset outside spread: %v", d3a)
	}
	if p.Mean() != 121 {
		t.Fatalf("Mean = %v", p.Mean())
	}
}

func TestPerRouterFixedDeterministicAcrossInstances(t *testing.T) {
	a := NewPerRouterFixed(121, 5, 7)
	b := NewPerRouterFixed(121, 5, 7)
	r := rng.New(1)
	for id := 0; id < 10; id++ {
		if a.Delay(r, id) != b.Delay(r, id) {
			t.Fatalf("instances disagree for router %d", id)
		}
	}
}

func TestRecommend(t *testing.T) {
	// The paper's Xerox PARC worked example: 300 routes × 1 ms = 0.3 s
	// processing, so at least ~1 s (here 10·Tc = 3 s) of randomness.
	rec := Recommend(90, 0.3)
	if rec.MinTr != 3 {
		t.Fatalf("MinTr = %v, want 3", rec.MinTr)
	}
	if rec.SafeTr != 45 {
		t.Fatalf("SafeTr = %v, want 45", rec.SafeTr)
	}
	// The paper says "at least a second" — our 10·Tc bound must satisfy it.
	if rec.MinTr < 1 {
		t.Fatalf("MinTr %v contradicts the paper's >= 1 s statement", rec.MinTr)
	}
}

func TestRecommendPanics(t *testing.T) {
	for _, f := range []func(){
		func() { Recommend(0, 0.1) },
		func() { Recommend(90, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid Recommend input did not panic")
				}
			}()
			f()
		}()
	}
}

// TestPolicyMeansProperty: empirical mean of any policy tracks Mean().
func TestPolicyMeansProperty(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := rng.New(seed)
		tp := r.Uniform(10, 200)
		tr := r.Uniform(0, tp/2)
		policies := []Policy{
			None{Tp: tp},
			Uniform{Tp: tp, Tr: tr},
			HalfSpread{Tp: tp},
		}
		for _, p := range policies {
			var sum float64
			const n = 20000
			for i := 0; i < n; i++ {
				sum += p.Delay(r, 0)
			}
			if math.Abs(sum/n-p.Mean())/p.Mean() > 0.02 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestStringers(t *testing.T) {
	for _, p := range []Policy{
		Uniform{Tp: 121, Tr: 0.1},
		HalfSpread{Tp: 90},
		NewPerRouterFixed(30, 2, 1),
	} {
		if p.String() == "" {
			t.Errorf("%T has empty String()", p)
		}
	}
}

func TestMixedDispatch(t *testing.T) {
	m := Mixed{
		Policies: map[int]Policy{3: None{Tp: 242}, 7: None{Tp: 60}},
		Fallback: None{Tp: 121},
	}
	r := rng.New(1)
	if d := m.Delay(r, 3); d != 242 {
		t.Fatalf("override 3 = %v", d)
	}
	if d := m.Delay(r, 7); d != 60 {
		t.Fatalf("override 7 = %v", d)
	}
	if d := m.Delay(r, 0); d != 121 {
		t.Fatalf("fallback = %v", d)
	}
	if m.Mean() != 121 {
		t.Fatalf("Mean = %v", m.Mean())
	}
	if !strings.Contains(m.String(), "2 overrides") {
		t.Fatalf("String = %q", m.String())
	}
}

func TestMixedWithJitteredPolicies(t *testing.T) {
	m := Mixed{
		Policies: map[int]Policy{1: Uniform{Tp: 242, Tr: 1}},
		Fallback: Uniform{Tp: 121, Tr: 1},
	}
	r := rng.New(2)
	for i := 0; i < 1000; i++ {
		if d := m.Delay(r, 1); d < 241 || d >= 243 {
			t.Fatalf("override out of window: %v", d)
		}
		if d := m.Delay(r, 2); d < 120 || d >= 122 {
			t.Fatalf("fallback out of window: %v", d)
		}
	}
}
