package runner

import (
	"strings"
	"testing"
)

func noopRun(*Spec) (*Artifacts, error) { return &Artifacts{}, nil }

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", want)
		}
		if msg := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic = %q, want substring %q", msg, want)
		}
	}()
	fn()
}

func TestRegisterCollisionPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Register(Experiment{ID: "a", Run: noopRun})
	mustPanic(t, `duplicate experiment id "a"`, func() {
		reg.Register(Experiment{ID: "a", Run: noopRun})
	})
}

func TestRegisterValidation(t *testing.T) {
	reg := NewRegistry()
	mustPanic(t, "empty experiment id", func() {
		reg.Register(Experiment{Run: noopRun})
	})
	mustPanic(t, "nil Run", func() {
		reg.Register(Experiment{ID: "b"})
	})
}

func TestLookupAndOrder(t *testing.T) {
	reg := NewRegistry()
	reg.Register(Experiment{ID: "z", Run: noopRun})
	reg.Register(Experiment{ID: "a", Run: noopRun})
	reg.Register(Experiment{ID: "m", Run: noopRun})

	if got := reg.byID["a"]; got == nil || got.ID != "a" {
		t.Fatalf("byID[a] = %v", got)
	}
	if got := reg.byID["missing"]; got != nil {
		t.Fatalf("byID[missing] = %v, want nil", got)
	}

	// All preserves registration order, not lexical order.
	ids := func(es []*Experiment) string {
		var out []string
		for _, e := range es {
			out = append(out, e.ID)
		}
		return strings.Join(out, ",")
	}
	if got := ids(reg.All()); got != "z,a,m" {
		t.Fatalf("All order = %s, want z,a,m", got)
	}
}

func TestSelect(t *testing.T) {
	reg := NewRegistry()
	for _, id := range []string{"fig01", "fig02", "fig03"} {
		reg.Register(Experiment{ID: id, Run: noopRun})
	}

	// Empty -only selects every experiment.
	all, err := reg.Select("")
	if err != nil || len(all) != 3 {
		t.Fatalf("Select(\"\") = %d experiments, err %v", len(all), err)
	}

	// Subset selection keeps registration order regardless of list order.
	sub, err := reg.Select(" fig03 ,fig01")
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 2 || sub[0].ID != "fig01" || sub[1].ID != "fig03" {
		t.Fatalf("Select subset = %v", sub)
	}

	// Unknown ids fail loudly and name the known pool.
	_, err = reg.Select("fig01,fig99")
	if err == nil || !strings.Contains(err.Error(), "unknown figure id(s): fig99") {
		t.Fatalf("unknown id error = %v", err)
	}
	if !strings.Contains(err.Error(), "fig01, fig02, fig03") {
		t.Fatalf("error should list known ids, got %v", err)
	}
}
