package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"routesync/internal/runner"
)

// writeFigure renders a Result into its own temp dir and returns the
// bytes of both output files.
func writeFigure(t *testing.T, r *Result) (csv, txt []byte) {
	t.Helper()
	dir := t.TempDir()
	if err := r.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	csv, err := os.ReadFile(filepath.Join(dir, r.ID+".csv"))
	if err != nil {
		t.Fatal(err)
	}
	txt, err = os.ReadFile(filepath.Join(dir, r.ID+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	return csv, txt
}

func TestFig10ByteIdenticalAcrossJobs(t *testing.T) {
	// The replicated simulation overlay must not depend on how many
	// workers ran the replications: replication s is always seeded
	// Seed+s and the averages are reduced in index order.
	serialCfg := MarkovConfig{Sims: 3, SimHorizon: 2e5, Jobs: 1}
	wideCfg := MarkovConfig{Sims: 3, SimHorizon: 2e5, Jobs: runtime.GOMAXPROCS(0) + 3}
	serialCSV, serialTXT := writeFigure(t, Fig10(serialCfg))
	wideCSV, wideTXT := writeFigure(t, Fig10(wideCfg))
	if !bytes.Equal(serialCSV, wideCSV) {
		t.Fatal("fig10.csv differs between jobs=1 and a wide worker pool")
	}
	if !bytes.Equal(serialTXT, wideTXT) {
		t.Fatal("fig10.txt differs between jobs=1 and a wide worker pool")
	}
}

func TestExtNSweepDeterministicAcrossRuns(t *testing.T) {
	// ExtNSweep's seed replications run on the shared pool with the
	// default (all-CPU) worker count; two invocations must agree byte
	// for byte regardless of scheduling.
	aCSV, aTXT := writeFigure(t, ExtNSweep(0, []int{5, 8}, 2, 2e5, 1))
	bCSV, bTXT := writeFigure(t, ExtNSweep(0, []int{5, 8}, 2, 2e5, 1))
	if !bytes.Equal(aCSV, bCSV) || !bytes.Equal(aTXT, bTXT) {
		t.Fatal("ext_nsweep output differs between two identical runs")
	}
}

// TestSweepDriversJobsInvariant runs the three sweep drivers at their
// -quick configurations over worker budgets that cover every split of
// cells against logical processes — one cell at a time (1), concurrent
// cells (2, 3, 8), and spare workers as LPs per cell (8 over
// ext_netscale's two cells) — and requires the same Series and Notes as
// the serial run.
func TestSweepDriversJobsInvariant(t *testing.T) {
	drivers := []struct {
		id  string
		run func(jobs int) *Result
	}{
		{"ext_netscale", func(jobs int) *Result {
			return ExtNetScale(figNetScale(&runner.Spec{Quick: true, Jobs: jobs}))
		}},
		{"ext_churn", func(jobs int) *Result {
			return ExtChurn(figChurn(&runner.Spec{Quick: true, Jobs: jobs}))
		}},
		{"ext_bgp", func(jobs int) *Result {
			return ExtBGP(figBGP(&runner.Spec{Quick: true, Jobs: jobs}))
		}},
	}
	for _, d := range drivers {
		t.Run(d.id, func(t *testing.T) {
			ref := d.run(1)
			for _, jobs := range []int{2, 3, 8} {
				got := d.run(jobs)
				if !reflect.DeepEqual(got.Series, ref.Series) {
					t.Errorf("jobs=%d: series differ from jobs=1", jobs)
				}
				if !reflect.DeepEqual(got.Notes, ref.Notes) {
					t.Errorf("jobs=%d: notes differ from jobs=1:\n%q\nvs\n%q", jobs, got.Notes, ref.Notes)
				}
			}
		})
	}
}
