package experiments

import (
	"strings"
	"testing"
)

// TestExtLinkStateSynchronizes: the paper's mechanism on a link-state
// protocol — low-jitter LSA refreshes lock step, Tp/2 jitter does not.
func TestExtLinkStateSynchronizes(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-level LAN run (~20 s)")
	}
	r := ExtLinkState(2e5, 1)
	if len(r.Series) != 2 {
		t.Fatalf("series = %d", len(r.Series))
	}
	joined := strings.Join(r.Notes, "\n")
	if !strings.Contains(joined, "uniform(Tp=121,Tr=0.1): last-origination spread") ||
		!strings.Contains(strings.SplitN(joined, "\n", 2)[0], "(synchronized)") {
		t.Fatalf("low-jitter run did not synchronize: %v", r.Notes)
	}
	if !strings.Contains(joined, "halfspread(Tp=121)") {
		t.Fatalf("missing halfspread run: %v", r.Notes)
	}
	for _, n := range r.Notes {
		if strings.Contains(n, "halfspread") && strings.Contains(n, "(synchronized)") {
			t.Fatalf("Tp/2 jitter synchronized: %v", n)
		}
	}
	// The low-jitter spread series collapses by orders of magnitude.
	s := r.Series[0]
	if s.Y[0] < 10 || s.Y[s.Len()-1] > 10 {
		t.Fatalf("spread series did not collapse: %v -> %v", s.Y[0], s.Y[s.Len()-1])
	}
}
