package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"routesync/internal/bench"
	"routesync/internal/des"
	"routesync/internal/runner"
)

// benchFileName is this PR's entry in the benchmark trajectory; the
// number advances with the PR sequence so successive snapshots sit side
// by side in out/.
const benchFileName = "BENCH_0009.json"

// benchResult is one micro-benchmark measurement.
type benchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchFile is the BENCH_NNNN.json schema: the hot-path micro-benchmarks
// plus an echo of the latest full-run TIMINGS.json, so one file carries
// both the micro (ns/op, allocs/op) and macro (per-driver wall time)
// trajectory for cross-PR comparison.
type benchFile struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// NumCPU qualifies the parallel-engine measurements (NetsimScale):
	// the K>1 vs K=1 ratio is only a speedup when cores are available.
	NumCPU     int                 `json:"num_cpu"`
	Benchmarks []benchResult       `json:"benchmarks"`
	Timings    *runner.TimingsFile `json:"timings,omitempty"`
}

// runBench executes the shared micro-benchmark bodies under
// testing.Benchmark and writes <outDir>/BENCH_0002.json.
func runBench(outDir string) error {
	cases := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"DESScheduleStep", bench.DESScheduleStep},
		{"DESScheduleStepObserved", bench.DESScheduleStepObserved},
		{"DESScheduleCancel", bench.DESScheduleCancel},
		{"DESTicker", bench.DESTicker},
		{"TickerStorm", bench.TickerStorm},
		{"DESScheduleFire/backend=heap/depth=1000", func(b *testing.B) { bench.DESScheduleFire(b, des.BackendHeap, 1000) }},
		{"DESScheduleFire/backend=calendar/depth=1000", func(b *testing.B) { bench.DESScheduleFire(b, des.BackendCalendar, 1000) }},
		{"DESScheduleFire/backend=heap/depth=100000", func(b *testing.B) { bench.DESScheduleFire(b, des.BackendHeap, 100000) }},
		{"DESScheduleFire/backend=calendar/depth=100000", func(b *testing.B) { bench.DESScheduleFire(b, des.BackendCalendar, 100000) }},
		{"PeriodicStep/N=20", func(b *testing.B) { bench.PeriodicStep(b, 20) }},
		{"PeriodicStep/N=100", func(b *testing.B) { bench.PeriodicStep(b, 100) }},
		{"PeriodicStep/N=1000", func(b *testing.B) { bench.PeriodicStep(b, 1000) }},
		{"PeriodicStepObserved/N=100", func(b *testing.B) { bench.PeriodicStepObserved(b, 100) }},
		{"PeriodicStepLargeN/N=10000", func(b *testing.B) { bench.PeriodicStepLargeN(b, 10000) }},
		{"PeriodicStepLargeN/N=100000", func(b *testing.B) { bench.PeriodicStepLargeN(b, 100000) }},
		{"ClusterGrow/N=20", func(b *testing.B) { bench.ClusterGrow(b, 20) }},
		{"ClusterGrow/N=1000", func(b *testing.B) { bench.ClusterGrow(b, 1000) }},
		{"ClusterGrowSorted/N=1000", func(b *testing.B) { bench.ClusterGrowSorted(b, 1000) }},
		{"ClusterPartition/N=1000", func(b *testing.B) { bench.ClusterPartition(b, 1000) }},
		{"NetsimForward", bench.NetsimForward},
		{"NetsimScale/N=500/K=1", func(b *testing.B) { bench.NetsimScale(b, 500, 1) }},
		{"NetsimScale/N=500/K=2", func(b *testing.B) { bench.NetsimScale(b, 500, 2) }},
		{"NetsimScale/N=500/K=8", func(b *testing.B) { bench.NetsimScale(b, 500, 8) }},
		{"NetsimScale/N=5000/K=1", func(b *testing.B) { bench.NetsimScale(b, 5000, 1) }},
		{"NetsimScale/N=5000/K=2", func(b *testing.B) { bench.NetsimScale(b, 5000, 2) }},
		{"NetsimScale/N=5000/K=8", func(b *testing.B) { bench.NetsimScale(b, 5000, 8) }},
		{"NetsimChurn/K=1", func(b *testing.B) { bench.NetsimChurn(b, 1) }},
		{"NetsimChurn/K=2", func(b *testing.B) { bench.NetsimChurn(b, 2) }},
		{"NetsimChurn/K=6", func(b *testing.B) { bench.NetsimChurn(b, 6) }},
		{"PathVectorUpdate", bench.PathVectorUpdate},
		{"NetsimBGP/N=1000/K=1", func(b *testing.B) { bench.NetsimBGP(b, 1000, 1) }},
		{"NetsimBGP/N=1000/K=2", func(b *testing.B) { bench.NetsimBGP(b, 1000, 2) }},
		{"NetsimBGP/N=1000/K=8", func(b *testing.B) { bench.NetsimBGP(b, 1000, 8) }},
		{"NetsimExchange/K=2", func(b *testing.B) { bench.NetsimExchange(b, 2) }},
		{"NetsimExchange/K=4", func(b *testing.B) { bench.NetsimExchange(b, 4) }},
		{"NetsimLowLookahead/mode=conservative/K=1", func(b *testing.B) { bench.NetsimLowLookahead(b, 1) }},
		{"NetsimLowLookahead/mode=conservative/K=4", func(b *testing.B) { bench.NetsimLowLookahead(b, 4) }},
	}
	bf := benchFile{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	for _, c := range cases {
		r := testing.Benchmark(c.fn)
		res := benchResult{
			Name:        c.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		bf.Benchmarks = append(bf.Benchmarks, res)
		fmt.Printf("%-26s %14.1f ns/op %10d B/op %8d allocs/op\n",
			res.Name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
	}
	// Attach the most recent full-run driver timings, if a full run has
	// been recorded in this output directory.
	if buf, err := os.ReadFile(filepath.Join(outDir, "TIMINGS.json")); err == nil {
		var tf runner.TimingsFile
		if json.Unmarshal(buf, &tf) == nil {
			bf.Timings = &tf
		}
	}
	buf, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, benchFileName)
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", path)
	return nil
}
