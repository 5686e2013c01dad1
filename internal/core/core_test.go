package core

import (
	"errors"
	"math"
	"testing"
)

func TestParamsValidate(t *testing.T) {
	good := PaperParams(0.1, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{N: 0, Tp: 121, Tr: 0.1, Tc: 0.11},
		{N: 20, Tp: 0, Tr: 0.1, Tc: 0.11},
		{N: 20, Tp: 121, Tr: -1, Tc: 0.11},
		{N: 20, Tp: 121, Tr: 122, Tc: 0.11},
		{N: 20, Tp: 121, Tr: 0.1, Tc: -0.11},
		{N: 100, Tp: 10, Tr: 0.1, Tc: 0.2}, // saturated
	}
	for _, p := range bad {
		if err := p.Validate(); !errors.Is(err, ErrBadParams) {
			t.Errorf("Validate(%+v) = %v, want ErrBadParams", p, err)
		}
	}
}

// TestParamsValidateNonFinite rejects NaN and ±Inf in each of Tp, Tr and
// Tc, both in Validate and at Simulate's entry.
func TestParamsValidateNonFinite(t *testing.T) {
	for _, field := range []string{"Tp", "Tr", "Tc"} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			p := PaperParams(0.1, 1)
			switch field {
			case "Tp":
				p.Tp = v
			case "Tr":
				p.Tr = v
			case "Tc":
				p.Tc = v
			}
			if err := p.Validate(); !errors.Is(err, ErrBadParams) {
				t.Errorf("%s=%v: Validate = %v, want ErrBadParams", field, v, err)
			}
			if _, err := Simulate(p, SimOptions{Horizon: 1e3}); !errors.Is(err, ErrBadParams) {
				t.Errorf("%s=%v: Simulate err = %v, want ErrBadParams", field, v, err)
			}
		}
	}
}

func TestSimulateSynchronizes(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	rep, err := Simulate(PaperParams(0.1, 1), SimOptions{Horizon: 3e5, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Synchronized {
		t.Fatal("paper parameters did not synchronize within 3e5 s")
	}
	if rep.SyncRounds <= 0 || rep.SyncTime <= 0 || rep.Events == 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.LargestTrace.Len() == 0 {
		t.Fatal("trace not recorded")
	}
	_, hi := rep.LargestTrace.YRange()
	if hi != 20 {
		t.Fatalf("trace max = %v, want 20", hi)
	}
}

func TestSimulateBreakup(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	p := PaperParams(2.8*0.11, 2)
	rep, err := Simulate(p, SimOptions{Horizon: 3e6, StartSynchronized: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Broken {
		t.Fatal("high-jitter synchronized start did not break up")
	}
	if !rep.Synchronized {
		t.Fatal("synchronized start must report Synchronized=true")
	}
}

func TestSimulateInvalidParams(t *testing.T) {
	if _, err := Simulate(Params{}, SimOptions{}); !errors.Is(err, ErrBadParams) {
		t.Fatalf("err = %v", err)
	}
}

func TestSimulateBadHorizon(t *testing.T) {
	p := PaperParams(0.1, 1)
	for _, h := range []float64{-5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Simulate(p, SimOptions{Horizon: h}); !errors.Is(err, ErrBadParams) {
			t.Errorf("Simulate(horizon=%v) err = %v, want ErrBadParams", h, err)
		}
		if _, err := SimulateEnsemble(p, 2, h, false); !errors.Is(err, ErrBadParams) {
			t.Errorf("SimulateEnsemble(horizon=%v) err = %v, want ErrBadParams", h, err)
		}
	}
	// Zero still selects the default horizon.
	if _, err := Simulate(PaperParams(0.1, 5), SimOptions{Horizon: 0}); err != nil {
		t.Errorf("Simulate(horizon=0) err = %v", err)
	}
}

func TestAnalyzeRegimes(t *testing.T) {
	low, err := Analyze(PaperParams(0.6*0.11, 1))
	if err != nil {
		t.Fatal(err)
	}
	if low.Regime != RegimeLow {
		t.Fatalf("Tr=0.6Tc regime = %s, want low", low.Regime)
	}
	high, err := Analyze(PaperParams(3*0.11, 1))
	if err != nil {
		t.Fatal(err)
	}
	if high.Regime != RegimeHigh {
		t.Fatalf("Tr=3Tc regime = %s, want high", high.Regime)
	}
	if !(low.ExpectedSyncSeconds < high.ExpectedSyncSeconds) {
		t.Fatal("sync time should grow with Tr")
	}
	if !(low.ExpectedUnsyncSeconds > high.ExpectedUnsyncSeconds) {
		t.Fatal("unsync time should shrink with Tr")
	}
	if len(low.Stationary) != 21 {
		t.Fatalf("stationary len = %d", len(low.Stationary))
	}
}

func TestAnalyzeModerateRegimeExists(t *testing.T) {
	// Somewhere between the extremes the fraction is intermediate.
	found := false
	for tr := 0.15; tr < 0.30; tr += 0.005 {
		a, err := Analyze(PaperParams(tr, 1))
		if err != nil {
			t.Fatal(err)
		}
		if a.Regime == RegimeModerate {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no moderate regime found in sweep — transition impossibly sharp")
	}
}

func TestCompare(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated simulations")
	}
	c, err := Compare(PaperParams(0.1, 1), 3, 2e6)
	if err != nil {
		t.Fatal(err)
	}
	if c.SimSynchronized != 3 {
		t.Fatalf("only %d/3 replications synchronized", c.SimSynchronized)
	}
	if math.IsNaN(c.Ratio) || c.Ratio < 1 {
		t.Fatalf("ratio = %v, want analysis >= sims (the chain over-predicts)", c.Ratio)
	}
}

func TestPlanJitter(t *testing.T) {
	// The paper's PARC worked example: Tp=90, Tc=0.3.
	plan, err := PlanJitter(20, 90, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if plan.MinTr != 3 || plan.SafeTr != 45 {
		t.Fatalf("plan = %+v", plan)
	}
	if plan.FractionAtMin < 0.95 {
		t.Fatalf("fraction at MinTr = %v, want ~1", plan.FractionAtMin)
	}
	if plan.FractionAtSafe < 0.95 {
		t.Fatalf("fraction at SafeTr = %v, want ~1", plan.FractionAtSafe)
	}
	if plan.FractionAtZero > 0.1 {
		t.Fatalf("fraction without jitter = %v, want ~0 (synchronized)", plan.FractionAtZero)
	}
}

func TestPlanJitterValidation(t *testing.T) {
	for _, f := range []func() (*JitterPlan, error){
		func() (*JitterPlan, error) { return PlanJitter(1, 90, 0.3) },
		func() (*JitterPlan, error) { return PlanJitter(20, 0, 0.3) },
		func() (*JitterPlan, error) { return PlanJitter(20, 90, 0) },
	} {
		if _, err := f(); !errors.Is(err, ErrBadParams) {
			t.Errorf("err = %v, want ErrBadParams", err)
		}
	}
}

func TestDeterministicReports(t *testing.T) {
	a, _ := Simulate(PaperParams(0.1, 7), SimOptions{Horizon: 5e4})
	b, _ := Simulate(PaperParams(0.1, 7), SimOptions{Horizon: 5e4})
	if a.Synchronized != b.Synchronized || a.SyncTime != b.SyncTime || a.Events != b.Events {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestCriticalJitter(t *testing.T) {
	tr, ok, err := CriticalJitter(20, 121, 0.11)
	if err != nil || !ok {
		t.Fatalf("err=%v ok=%v", err, ok)
	}
	if tr < 0.15 || tr > 0.26 {
		t.Fatalf("critical Tr = %v, want ~0.21 (1.9·Tc)", tr)
	}
	if _, _, err := CriticalJitter(1, 121, 0.11); !errors.Is(err, ErrBadParams) {
		t.Fatalf("bad params err = %v", err)
	}
}

func TestSimulateEnsemble(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated runs")
	}
	res, err := SimulateEnsemble(PaperParams(0.1, 1), 4, 2e6, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached < 3 {
		t.Fatalf("only %d/4 synchronized", res.Reached)
	}
	broke, err := SimulateEnsemble(PaperParams(1.1, 1), 4, 1e6, true)
	if err != nil {
		t.Fatal(err)
	}
	if broke.Reached != 4 {
		t.Fatalf("only %d/4 broke up at 10·Tc", broke.Reached)
	}
	if _, err := SimulateEnsemble(PaperParams(0.1, 1), 0, 1e4, false); !errors.Is(err, ErrBadParams) {
		t.Fatalf("bad replications err = %v", err)
	}
}
