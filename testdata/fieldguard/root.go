// Package fieldguard is TestFieldGuardRules' synthetic module; like
// routesync, its root package exposes an internal type.
package fieldguard

import "fieldguard/internal/a"

// Exposed is the module's exported API.
type Exposed = a.Exposed

// Default fills in a knob's default outside the knob's own package.
func Default(c a.ForeignConfig) int {
	if c.N == 0 {
		c.N = 4
	}
	return c.N
}
