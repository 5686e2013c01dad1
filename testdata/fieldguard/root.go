// Package fieldguard is TestFieldGuardRules' synthetic module; like
// routesync, its root package exposes an internal type.
package fieldguard

import "fieldguard/internal/a"

// Exposed is the module's exported API.
type Exposed = a.Exposed
