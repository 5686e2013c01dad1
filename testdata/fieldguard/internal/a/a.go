// Package a declares one struct type per field rule of
// TestNoTestOnlyAPI; each type's doc comment says whether the guard must
// flag its fields. The *Config and *Options types are knobs: each field
// is read, and the comment says how production sets it.
package a

import (
	"encoding/json"
	"fmt"
)

// Written is assigned, incremented and built, never read: flagged.
type Written struct{ N int }

// Indexed's map is only stored into, element by element: flagged.
type Indexed struct{ M map[int]int }

// TestOnly is read only by a test: flagged.
type TestOnly struct{ N int }

// Selected is read by a selector: passes.
type Selected struct{ N int }

// Printed goes to fmt, which prints its fields and its nested struct's:
// all pass.
type Printed struct {
	N  int
	In struct{ N int }
}

// Marshaled goes to encoding/json, which reads the exported field
// (passes) and skips the unexported one (flagged).
type Marshaled struct {
	N       int
	private int
}

// Quiet goes to fmt, which calls String instead of reading N: flagged.
type Quiet struct{ N int }

func (Quiet) String() string { return "quiet" }

// Exposed is aliased by the root package: its exported field passes and
// its unexported one is flagged.
type Exposed struct {
	N      int
	hidden int
}

// Generic's field is read on an instance: passes.
type Generic[T any] struct{ V T }

// Outer's embedded field and the promoted Embedded.N are read by one
// selection: both pass.
type Outer struct{ Embedded }
type Embedded struct{ N int }

// KnobConfig's N is set only by a test: flagged. Its unexported field is
// no knob: passes.
type KnobConfig struct {
	N int
	n int
}

// DefaultConfig's N is set only to fill in its default, inside an if
// whose condition reads it: flagged.
type DefaultConfig struct{ N int }

// KeyedConfig's N is set by a composite-literal key: passes.
type KeyedConfig struct{ N int }

// AssignedOptions' fields are set by =, by += and by ++: all pass.
type AssignedOptions struct{ N, M, K int }

// GuardedConfig's N is set inside an if whose condition reads only M,
// and M is keyed: both pass.
type GuardedConfig struct{ N, M int }

// ForeignConfig's N is defaulted by the root package, outside its own
// package: passes.
type ForeignConfig struct{ N int }

// Settings is not named like a knob, so its unset field passes.
type Settings struct{ N int }

// Use exercises every type above.
func Use() {
	w := Written{N: 1}
	w.N = 2
	w.N++
	w.N += 3
	x := Indexed{M: map[int]int{}}
	x.M[1] = 2
	_ = TestOnly{N: 1}
	_ = Selected{}.N
	fmt.Println(Printed{}, Quiet{N: 1})
	b, _ := json.Marshal(Marshaled{private: 1})
	fmt.Println(len(b), Generic[int]{}.V, Outer{}.N)
	_ = Exposed{hidden: 1}

	k := KnobConfig{}
	d := DefaultConfig{}
	if d.N == 0 {
		d.N = 4
	}
	var o AssignedOptions
	o.N = 1
	o.M += 2
	o.K++
	g := GuardedConfig{M: 1}
	if g.M > 0 {
		g.N = g.M
	}
	fmt.Println(k.N+k.n, d.N, KeyedConfig{N: 1}.N, o.N+o.M+o.K, g.N, Settings{}.N)
}
