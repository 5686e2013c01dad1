package routing

// Profile captures a routing protocol's constants. The periods are the
// ones the paper quotes in §3: RIP every 30 s, IGRP every 90 s, DECnet
// DNA Phase IV every 120 s, EGP every 180 s.
type Profile struct {
	// Name identifies the protocol in logs and stats.
	Name string
	// Period is the nominal update interval Tp in seconds.
	Period float64
	// Infinity is the unreachable metric (RIP: 16).
	Infinity uint32
	// TimeoutFactor: a route not refreshed within TimeoutFactor·Period
	// is marked unreachable (RIP: 180 s = 6 periods).
	TimeoutFactor float64
	// GCFactor: an unreachable route is deleted after GCFactor·Period
	// without refresh (RIP: 300 s = 10 periods).
	GCFactor float64
	// TriggeredUpdates enables immediate updates on topology change
	// (present in RIP, IGRP and DNA Phase IV per §3).
	TriggeredUpdates bool
	// SplitHorizon omits routes from updates sent on the medium they
	// were learned over.
	SplitHorizon bool
	// PoisonReverse advertises routes on their learning medium with the
	// infinity metric instead of omitting them (stronger loop breaking
	// at the cost of bigger updates). Only meaningful with SplitHorizon.
	PoisonReverse bool
	// HoldDown, in seconds, freezes a destination after it becomes
	// unreachable: better news from a different next hop is rejected
	// until the hold expires (IGRP-style damping of count-to-infinity
	// rumors). Zero disables hold-down.
	HoldDown float64
}

// RIP returns the Routing Information Protocol profile (RFC 1058): 30 s
// updates, infinity 16.
func RIP() Profile {
	return Profile{
		Name:             "rip",
		Period:           30,
		Infinity:         16,
		TimeoutFactor:    6,
		GCFactor:         10,
		TriggeredUpdates: true,
		SplitHorizon:     true,
	}
}

// IGRP returns an IGRP-shaped profile: 90 s updates (the period behind
// the paper's Figure 1 NEARnet losses). The real IGRP composite metric is
// out of scope; hop count with a large infinity preserves the periodic
// behaviour under study.
func IGRP() Profile {
	return Profile{
		Name:             "igrp",
		Period:           90,
		Infinity:         256,
		TimeoutFactor:    3,
		GCFactor:         7,
		TriggeredUpdates: true,
		SplitHorizon:     true,
		PoisonReverse:    true,
		HoldDown:         280, // ~3 periods + 10 s, the classic IGRP default
	}
}

// DECnet returns a DNA Phase IV-shaped profile: 120 s updates — the
// protocol whose synchronized updates on the authors' own Ethernet
// started this investigation in 1988 (§2).
func DECnet() Profile {
	return Profile{
		Name:             "decnet",
		Period:           120,
		Infinity:         1024,
		TimeoutFactor:    3,
		GCFactor:         6,
		TriggeredUpdates: true,
		SplitHorizon:     false,
	}
}

// EGP returns an EGP-shaped profile: 180 s updates (§3: "EGP routers send
// update messages every three minutes").
func EGP() Profile {
	return Profile{
		Name:             "egp",
		Period:           180,
		Infinity:         255,
		TimeoutFactor:    3,
		GCFactor:         6,
		TriggeredUpdates: false,
		SplitHorizon:     false,
	}
}

// Hello returns a Hello-protocol-shaped profile (RFC 891 DCN): frequent
// small updates. Real Hello metrics are milliseconds of delay, hence the
// large Infinity; the agent counts hops, so here it only bounds a count
// to infinity.
func Hello() Profile {
	return Profile{
		Name:             "hello",
		Period:           30,
		Infinity:         30000,
		TimeoutFactor:    4,
		GCFactor:         8,
		TriggeredUpdates: true,
		SplitHorizon:     false,
	}
}

// Validate reports whether the profile's constants are usable.
func (p Profile) Validate() error {
	switch {
	case p.Period <= 0:
		return errBad("period", p.Name)
	case p.Infinity < 2:
		return errBad("infinity", p.Name)
	case p.TimeoutFactor <= 0:
		return errBad("timeout factor", p.Name)
	case p.GCFactor < p.TimeoutFactor:
		return errBad("gc factor below timeout factor", p.Name)
	case p.HoldDown < 0:
		return errBad("negative hold-down", p.Name)
	}
	return nil
}

type profileError struct {
	field, name string
}

func errBad(field, name string) error { return &profileError{field: field, name: name} }

func (e *profileError) Error() string {
	return "routing: invalid profile " + e.name + ": bad " + e.field
}
