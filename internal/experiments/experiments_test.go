package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"routesync/internal/stats"
)

// quickModel is a scaled-down ModelConfig for fast tests.
func quickModel() ModelConfig {
	return ModelConfig{Tr: 0.1, Horizon: 1e5}
}

func TestFig1ShowsPeriodicLoss(t *testing.T) {
	r, ping := Fig1(PathConfig{}, 1000)
	if ping.LossRate() < 0.02 || ping.LossRate() > 0.2 {
		t.Fatalf("loss rate = %v, want a few percent like the paper", ping.LossRate())
	}
	if len(r.Series) == 0 || r.Series[0].Len() != 1000 {
		t.Fatalf("series malformed: %+v", r.Series)
	}
	// Losses recur periodically: the gap between loss bursts is close to
	// the IGRP period in pings.
	var lossIdx []int
	for i, y := range r.Series[0].Y {
		if y < 0 {
			lossIdx = append(lossIdx, i)
		}
	}
	if len(lossIdx) < 10 {
		t.Fatalf("only %d lost pings", len(lossIdx))
	}
	// Median gap between consecutive loss *bursts* (gaps > 10 pings).
	var gaps []float64
	for i := 1; i < len(lossIdx); i++ {
		if d := lossIdx[i] - lossIdx[i-1]; d > 10 {
			gaps = append(gaps, float64(d))
		}
	}
	med := stats.Median(gaps)
	if med < 80 || med > 105 {
		t.Fatalf("median loss-burst gap = %v pings, want ~89-93 (90 s IGRP period)", med)
	}
}

func TestFig2PeakNearUpdatePeriod(t *testing.T) {
	_, ping := Fig1(PathConfig{}, 1000)
	r := Fig2(ping, 200)
	// The ACF series must peak in the 85..100 lag window (the effective
	// period is Tp + N·Tc ≈ 93 s with the coupled timers).
	acf := r.Series[0]
	best, bestLag := math.Inf(-1), -1
	for i := 45; i < acf.Len(); i++ {
		if acf.Y[i] > best {
			best, bestLag = acf.Y[i], i
		}
	}
	if bestLag < 85 || bestLag > 100 {
		t.Fatalf("ACF peak at lag %d, want 85..100", bestLag)
	}
	if best < 0.15 {
		t.Fatalf("ACF peak value %v too weak", best)
	}
}

func TestFig3PeriodicOutages(t *testing.T) {
	r, audio := Fig3(PathConfig{}, 600)
	if audio.LossRate() <= 0 {
		t.Fatal("no audio loss at all")
	}
	// Count big spikes; expect roughly one per RIP period (30 s) over
	// 600 s, i.e. ~20, allow broad slack.
	spikes := 0
	for i := 0; i < r.Series[0].Len(); i++ {
		if r.Series[0].Y[i] > 0.5 {
			spikes++
		}
	}
	if spikes < 10 || spikes > 30 {
		t.Fatalf("loss spikes = %d, want ~20 (one per 30 s)", spikes)
	}
	// And isolated single losses exist too (background noise).
	singles := 0
	for _, o := range audio.Outages() {
		if math.Round(o.Duration/audio.Gap) == 1 {
			singles++
		}
	}
	if singles == 0 {
		t.Fatal("no isolated single-packet losses (background noise missing)")
	}
}

func TestFig3FixedModeEliminatesSpikes(t *testing.T) {
	// Ablation within the Fig 3 scenario: with the post-fix NEARnet
	// routers of §2, which forward while processing updates, the periodic
	// spikes disappear and only background noise remains. A negligible
	// per-route cost emulates them: each stall shrinks to nanoseconds.
	c := PathConfig{PerRouteCost: 1e-9, BackgroundLoss: 0.002}
	_, audio := Fig3(c, 600)
	for _, o := range audio.Outages() {
		if lost := math.Round(o.Duration / audio.Gap); lost > 3 {
			t.Fatalf("multi-packet outage (%v lost) without CPU stalls", lost)
		}
	}
}

func TestFig4Synchronizes(t *testing.T) {
	r := Fig4(quickModel())
	if len(r.Series) != 1 || r.Series[0].Len() == 0 {
		t.Fatal("empty offset trace")
	}
	found := false
	for _, n := range r.Notes {
		if strings.Contains(n, "fully synchronized after") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no synchronization note: %v", r.Notes)
	}
}

func TestFig5MarksBalance(t *testing.T) {
	r := Fig5(quickModel(), 30000, 40000)
	if len(r.Series) != 2 {
		t.Fatal("want expiry and reset series")
	}
	if r.Series[0].Len() == 0 || r.Series[0].Len() != r.Series[1].Len() {
		t.Fatalf("marks unbalanced: %d vs %d", r.Series[0].Len(), r.Series[1].Len())
	}
}

func TestFig6ReachesFullCluster(t *testing.T) {
	r := Fig6(quickModel())
	_, hi := r.Series[0].YRange()
	if hi != 20 {
		t.Fatalf("largest cluster max = %v, want 20", hi)
	}
}

func TestFig7MonotoneSyncTimes(t *testing.T) {
	if testing.Short() {
		t.Skip("long sweep")
	}
	cfg := quickModel()
	cfg.Horizon = 3e6
	rounds := sweepRounds(t, Fig7(cfg, []float64{0.6, 1.0}))
	if len(rounds) != 2 {
		t.Fatalf("rounds = %v", rounds)
	}
	if rounds[0] < 0 || rounds[1] < 0 {
		t.Fatalf("sync not reached: %v", rounds)
	}
	if rounds[0] >= rounds[1] {
		t.Fatalf("sync time should grow with Tr: %v", rounds)
	}
}

func TestFig8MonotoneBreakTimes(t *testing.T) {
	if testing.Short() {
		t.Skip("long sweep")
	}
	cfg := quickModel()
	cfg.Horizon = 3e6
	rounds := sweepRounds(t, Fig8(cfg, []float64{2.5, 2.8}, 2))
	if len(rounds) != 2 {
		t.Fatalf("rounds = %v", rounds)
	}
	if rounds[0] < 0 && rounds[1] < 0 {
		t.Fatalf("neither Tr broke synchronization: %v", rounds)
	}
	if rounds[1] >= 0 && rounds[0] >= 0 && rounds[1] > rounds[0] {
		t.Fatalf("break-up should be faster at higher Tr: %v", rounds)
	}
}

// sweepRounds reads the round counts off a Fig 7/8 result's notes, one
// per Tr, with -1 where the condition was not reached by the horizon.
func sweepRounds(t *testing.T, r *Result) []float64 {
	t.Helper()
	rounds := make([]float64, len(r.Notes))
	for i, note := range r.Notes {
		rounds[i] = -1
		if _, after, ok := strings.Cut(note, " after "); ok {
			if _, err := fmt.Sscanf(after, "%f rounds", &rounds[i]); err != nil {
				t.Fatalf("note %q: %v", note, err)
			}
		}
	}
	return rounds
}

func TestFig9Probabilities(t *testing.T) {
	r := Fig9(MarkovConfig{})
	if len(r.Series) != 3 {
		t.Fatal("want up/down/stay series")
	}
	for _, s := range r.Series {
		for _, y := range s.Y {
			if y < -1e-9 || y > 1+1e-9 {
				t.Fatalf("probability out of range in %s: %v", s.Name, y)
			}
		}
	}
}

func TestFig10AnalysisOverpredicts(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation overlay")
	}
	r := Fig10(MarkovConfig{Sims: 3, SimHorizon: 2e6})
	if len(r.Series) != 2 {
		t.Fatalf("want analysis+sim series, got %d", len(r.Series))
	}
	// The analysis curve must lie to the right of (or equal to) the
	// simulation curve at the top cluster size: the paper's chain
	// over-predicts.
	an, sim := r.Series[0], r.Series[1]
	if an.Len() == 0 || sim.Len() == 0 {
		t.Fatal("empty series")
	}
	if an.X[an.Len()-1] < sim.X[0] {
		t.Fatal("analysis does not over-predict — unexpected inversion")
	}
}

func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation overlay")
	}
	r := Fig11(MarkovConfig{Sims: 3, SimHorizon: 5e6})
	an := r.Series[0]
	// g(i): smaller target sizes take longer — as y (target size) rises,
	// the time x must not increase.
	for i := 1; i < an.Len(); i++ {
		if an.X[i] > an.X[i-1] {
			t.Fatalf("analysis series not monotone at %d: %+v", i, an)
		}
	}
	if an.X[an.Len()-1] != 0 {
		t.Fatalf("g(N) must be 0, got %v", an.X[an.Len()-1])
	}
}

func TestFig12RegionsAndCross(t *testing.T) {
	r := Fig12(MarkovConfig{})
	if len(r.Series) != 2 {
		t.Fatalf("without Sims, want 2 series, got %d", len(r.Series))
	}
	fn, g1 := r.Series[0], r.Series[1]
	// Low randomization: f(N) small, g(1) huge. High: reversed.
	if fn.Y[0] > g1.Y[0] {
		t.Fatalf("low-Tr region inverted: f=%v g=%v", fn.Y[0], g1.Y[0])
	}
	last := fn.Len() - 1
	if fn.Y[last] < g1.Y[last] {
		t.Fatalf("high-Tr region inverted: f=%v g=%v", fn.Y[last], g1.Y[last])
	}
	// Clamped at the paper's axis cap.
	for _, y := range append(fn.Y, g1.Y...) {
		if y > AxisCap {
			t.Fatalf("value above axis cap: %v", y)
		}
	}
}

func TestFig12SimulationMarks(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation overlay")
	}
	r := Fig12(MarkovConfig{Sims: 2, SimHorizon: 2e6})
	if len(r.Series) != 4 {
		t.Fatalf("with Sims, want 4 series, got %d", len(r.Series))
	}
	x, plus := r.Series[2], r.Series[3]
	if x.Len() == 0 || plus.Len() == 0 {
		t.Fatal("no simulation marks produced")
	}
	// Sync times rise with Tr; break times fall with Tr.
	for i := 1; i < x.Len(); i++ {
		if x.Y[i] < x.Y[i-1] {
			t.Fatalf("unsync-start marks not rising: %v", x.Y)
		}
	}
	last := plus.Len() - 1
	if plus.Y[last] > plus.Y[0] {
		t.Fatalf("sync-start marks not falling overall: %v", plus.Y)
	}
}

func TestFig13SeriesCount(t *testing.T) {
	r := Fig13(MarkovConfig{}, []int{10, 20}, []float64{0.11})
	if len(r.Series) != 4 { // f and g per N
		t.Fatalf("series = %d, want 4", len(r.Series))
	}
}

func TestFig14SharpTransition(t *testing.T) {
	r := Fig14(MarkovConfig{})
	s := r.Series[0]
	lo, hi := s.Y[0], s.Y[s.Len()-1]
	if lo > 0.05 || hi < 0.95 {
		t.Fatalf("transition endpoints: %v → %v", lo, hi)
	}
	// Sharpness: the 0.1→0.9 rise happens within 0.5·Tc.
	var x10, x90 float64 = -1, -1
	for i := 0; i < s.Len(); i++ {
		if x10 < 0 && s.Y[i] > 0.1 {
			x10 = s.X[i]
		}
		if x90 < 0 && s.Y[i] > 0.9 {
			x90 = s.X[i]
		}
	}
	if x90-x10 > 0.5 {
		t.Fatalf("transition width %.2f Tc, want < 0.5 (abrupt phase transition)", x90-x10)
	}
}

func TestFig15SingleRouterFlip(t *testing.T) {
	r := Fig15(MarkovConfig{})
	s := r.Series[0]
	if s.Y[0] < 0.9 {
		t.Fatalf("small N should be unsynchronized: %v", s.Y[0])
	}
	if s.Y[s.Len()-1] > 0.1 {
		t.Fatalf("large N should be synchronized: %v", s.Y[s.Len()-1])
	}
	// Some single-router step drops the fraction by > 0.5.
	bigDrop := false
	for i := 1; i < s.Len(); i++ {
		if s.Y[i-1]-s.Y[i] > 0.5 {
			bigDrop = true
		}
	}
	if !bigDrop {
		t.Fatal("no single-router phase flip found")
	}
}

func TestClaimPARC(t *testing.T) {
	r := ClaimPARC(1)
	// The 1/2 crossing should sit near 1 second (paper: "at least a
	// second of randomness").
	found := false
	for _, n := range r.Notes {
		if strings.Contains(n, "crosses 1/2 near Tr") {
			found = true
		}
	}
	if !found {
		t.Fatalf("notes = %v", r.Notes)
	}
	s := r.Series[0]
	// At 0.3 s (1·Tc) mostly synchronized; at 1.8 s (6·Tc) unsynchronized.
	for i := 0; i < s.Len(); i++ {
		if s.X[i] < 0.35 && s.Y[i] > 0.5 {
			t.Fatalf("fraction at Tr=%v is %v, want < 0.5", s.X[i], s.Y[i])
		}
		if s.X[i] > 1.8 && s.Y[i] < 0.5 {
			t.Fatalf("fraction at Tr=%v is %v, want > 0.5", s.X[i], s.Y[i])
		}
	}
}

func TestClaimGuidance(t *testing.T) {
	r := ClaimGuidance()
	for _, s := range r.Series {
		for i, y := range s.Y {
			if y < 0.95 {
				t.Fatalf("%s grid point %d: fraction %v < 0.95", s.Name, i, y)
			}
		}
	}
}

func TestAblationTimerPolicy(t *testing.T) {
	r := AblationTimerPolicy(quickModel())
	joined := strings.Join(r.Notes, "\n")
	if !strings.Contains(joined, "reset-after-processing: synchronized") {
		t.Fatalf("paper policy did not synchronize: %v", r.Notes)
	}
	if !strings.Contains(joined, "reset-on-expiry: never synchronized") {
		t.Fatalf("clock-driven policy synchronized: %v", r.Notes)
	}
}

func TestAblationSolver(t *testing.T) {
	r := AblationSolver(MarkovConfig{})
	if len(r.Series) != 3 {
		t.Fatal("want three solver series")
	}
	joined := strings.Join(r.Notes, "\n")
	if !strings.Contains(joined, "matches exact solver") {
		t.Fatalf("notes = %v", r.Notes)
	}
}

func TestAblationDelivery(t *testing.T) {
	r := AblationDelivery([]float64{0, 0.2}, 1)
	s := r.Series[0]
	if s.Len() != 2 {
		t.Fatalf("series = %+v", s)
	}
	if s.Y[0] > 1e-9 {
		t.Fatalf("zero-delay pair not in lock-step: spread %v", s.Y[0])
	}
	if s.Y[1] < 0.01 {
		t.Fatalf("large-delay pair unexpectedly coupled: spread %v", s.Y[1])
	}
}

func TestResultWriteFiles(t *testing.T) {
	dir := t.TempDir()
	r := Fig9(MarkovConfig{})
	if err := r.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	csv, err := os.ReadFile(filepath.Join(dir, "fig09.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "series,x,y\n") {
		t.Fatal("csv header missing")
	}
	txt, err := os.ReadFile(filepath.Join(dir, "fig09.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(txt), "fig09") {
		t.Fatal("ascii render missing title")
	}
}

func TestRenderASCIIIncludesNotes(t *testing.T) {
	r := &Result{ID: "x", Title: "t"}
	r.Notef("hello %d", 42)
	out := r.RenderASCII()
	if !strings.Contains(out, "note: hello 42") {
		t.Fatalf("out = %q", out)
	}
}
