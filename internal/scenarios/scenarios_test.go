package scenarios

import (
	"math"
	"testing"

	"routesync/internal/stats"
)

func TestClientServerSteadyState(t *testing.T) {
	cs := NewClientServer(ClientServerConfig{N: 10, Tp: 30, Tr: 0.5, Tc: 0.05, Seed: 1})
	cs.RunUntil(600)
	// ~20 rounds × 10 clients of polls served, in the finished busy runs
	// and the current one.
	n := cs.busyRunCount
	for _, r := range cs.BusyRuns {
		n += r
	}
	if n < 150 || n > 250 {
		t.Fatalf("responses = %d, want ~200", n)
	}
}

// TestClientServerRecoveryConvoy is the [Ba92] Sprite anecdote: after a
// server outage, every client that polled during the outage is served
// back to back at recovery and their next polls land together — a convoy.
func TestClientServerRecoveryConvoy(t *testing.T) {
	cfg := ClientServerConfig{N: 20, Tp: 30, Tr: 0.05, Tc: 0.1, Seed: 2}
	cs := NewClientServer(cfg)
	cs.RunUntil(100)
	before := cs.LargestConvoy()

	// Take the server down for two full poll periods: every client polls
	// (exactly once — their timers stay un-armed until the response)
	// while it is down.
	cs.Sim().Schedule(100.5, "fail", func() { cs.FailServer(65) })
	cs.RunUntil(300)

	// The recovery serves the entire population in one back-to-back busy
	// run — the crispest convoy signal.
	maxRun := 0
	for _, n := range cs.BusyRuns {
		if n > maxRun {
			maxRun = n
		}
	}
	if maxRun < cfg.N {
		t.Fatalf("largest busy run = %d, want %d (the recovery storm)", maxRun, cfg.N)
	}
	// The clients' phases collapse: all 20 polls land within ~N·Tc = 2 s
	// of a 30-second period.
	if r := cs.OrderParameter(); r < 0.95 {
		t.Fatalf("order parameter after recovery storm = %v, want ~1", r)
	}
	// A substantial convoy persists rounds later (serialization spaces
	// polls by Tc each, so the strict busy-window partition reports a
	// core convoy rather than the full population).
	cs.RunUntil(600)
	after := cs.LargestConvoy()
	if after < cfg.N/3 {
		t.Fatalf("convoy after recovery = %d, want >= %d", after, cfg.N/3)
	}
	if after <= before/2 {
		t.Fatalf("convoy did not grow: before %d, after %d", before, after)
	}
}

// TestClientServerLargeJitterResists: with Tr = Tp/2, the recovery convoy
// disperses within a few polls.
func TestClientServerLargeJitterResists(t *testing.T) {
	cfg := ClientServerConfig{N: 20, Tp: 30, Tr: 15, Tc: 0.1, Seed: 3}
	cs := NewClientServer(cfg)
	cs.RunUntil(100)
	cs.Sim().Schedule(100.5, "fail", func() { cs.FailServer(65) })
	cs.RunUntil(300) // convoy forms at recovery...
	cs.RunUntil(900) // ...and should disperse within a few rounds
	if got := cs.LargestConvoy(); got > cfg.N/2 {
		t.Fatalf("convoy persisted despite Tr = Tp/2: %d", got)
	}
}

func TestClientServerBusyRuns(t *testing.T) {
	cs := NewClientServer(ClientServerConfig{N: 5, Tp: 30, Tr: 0.01, Tc: 0.1, Seed: 4})
	cs.RunUntil(400)
	if len(cs.BusyRuns) == 0 {
		t.Fatal("no busy runs recorded")
	}
	total := 0
	for _, n := range cs.BusyRuns {
		if n < 1 {
			t.Fatalf("busy run of %d", n)
		}
		total += n
	}
	// Each client polls at most once per Tp−Tr, 1 + ⌊400/29.99⌋ = 14
	// times in 400 s, so the runs cannot hold more than 5 × 14 requests.
	if limit := 5 * 14; total > limit {
		t.Fatalf("busy runs hold %d requests, more than the %d polls possible", total, limit)
	}
}

func TestClientServerInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	NewClientServer(ClientServerConfig{N: -1, Tp: 30, Tc: 0.1, Tr: 0.1, Seed: 1})
}

func TestExternalClockPeaks(t *testing.T) {
	cfg := ExternalClockConfig{Seed: 1}
	clocked := RunExternalClock(cfg)
	baseline := UniformBaseline(cfg)
	if clocked.PeakToMean < 10 {
		t.Fatalf("clock-synchronized peak/mean = %v, want ≫ 1", clocked.PeakToMean)
	}
	// The uniform baseline's peak/mean is a small-number statistic (a few
	// arrivals per bin); what matters is the gulf between the two.
	if clocked.PeakToMean < 4*baseline.PeakToMean {
		t.Fatalf("synchronized traffic (%v) should dwarf baseline (%v)",
			clocked.PeakToMean, baseline.PeakToMean)
	}
	// Arrival count: processes × boundaries, every one binned inside the
	// observation window.
	want := clockProcesses * 6
	if got := binned(clocked.Histogram); got != want || clocked.Histogram.Total() != want {
		t.Fatalf("arrivals = %d (%d inside the window), want %d", clocked.Histogram.Total(), got, want)
	}
}

func TestExternalClockHistogramConservation(t *testing.T) {
	cfg := ExternalClockConfig{Seed: 7}
	res := RunExternalClock(cfg)
	if got := binned(res.Histogram); got != res.Histogram.Total() {
		t.Fatalf("histogram bins hold %d of %d arrivals", got, res.Histogram.Total())
	}
}

// binned sums a histogram's bins: the observations inside its range.
func binned(h *stats.Histogram) int {
	n := 0
	for _, c := range h.Counts {
		n += c
	}
	return n
}

func TestOrderParameterRange(t *testing.T) {
	cs := NewClientServer(ClientServerConfig{})
	cs.RunUntil(500)
	r := cs.OrderParameter()
	if r < 0 || r > 1+1e-12 || math.IsNaN(r) {
		t.Fatalf("order parameter = %v", r)
	}
}
