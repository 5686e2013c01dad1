// Command benchguard compares `go test -bench` output on stdin against a
// committed BENCH_NNNN.json snapshot and fails when any baseline
// benchmark allocates more per op than the snapshot recorded (plus 1%
// headroom, which rounds to zero for the alloc-free hot paths — a 0 → 1
// allocs/op slip still fails exactly), allocates more bytes per op than
// the snapshot (exact for 0 B/op baselines, 12.5% + 8 bytes headroom
// elsewhere — small baselines truncate per-op and wobble by whole
// objects), runs slower than the snapshot ns/op by more than a
// configurable tolerance, or is missing from the input. ns/op is noisy
// in CI, so the time gate only trips on regressions past -tolerance
// (default 25%) — wide enough to ride out scheduler jitter, tight enough
// to catch a hot path falling off its complexity class.
//
// Usage:
//
//	go test -bench . -benchtime 1s -run '^$' ./internal/bench/ | benchguard
//	go test -bench . -benchtime 1s -run '^$' ./internal/bench/ | benchguard -record
//
// With no -baseline the guard gates against the newest snapshot in out/:
// the BENCH_NNNN.json with the highest number (a file whose suffix is not
// a number, such as BENCH_notes.json, is not a snapshot), so the CI
// invocation needs no edit when a PR adds the next snapshot.
//
// -record runs the same gate against the newest snapshot and, only if it
// passes, writes the input as the next snapshot, numbered one past the
// newest and never overwriting a file, with this process's Go version,
// OS, architecture and CPU count. A snapshot can thus only loosen the
// next gate by -tolerance. Baseline rows missing from the input fail the
// plain gate; -record lists them as dropped, so a change that deletes a
// benchmark can still record. Input rows the baseline lacks are not
// gated, and -record keeps them.
//
// Benchmark names are normalized (the "Benchmark" prefix and the
// "-<GOMAXPROCS>" suffix are stripped) before they are compared. Zero
// matches is an error in either mode — it means the naming drifted and
// the guard is watching nothing.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// snapshot is the BENCH_NNNN.json schema, read as a baseline and written
// by -record.
type snapshot struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// NumCPU qualifies the parallel-engine rows (NetsimScale): the K>1
	// vs K=1 ratio is only a speedup when cores are available.
	NumCPU     int      `json:"num_cpu"`
	Benchmarks []result `json:"benchmarks"`
}

// result is one benchmark row: a parsed `go test -bench` line or a
// snapshot entry.
type result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	hasBytes    bool    // the line carried a B/op column
}

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkDESScheduleStep-8   15734137   71.20 ns/op   0 B/op   0 allocs/op
//
// The B/op column appears with -benchmem or b.ReportAllocs; when a line
// lacks it, the bytes gate is skipped for that benchmark.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([0-9.]+) ns/op(?:\s+(\d+) B/op)?.*?(\d+)\s+allocs/op`)

// gomaxprocsSuffix is the trailing "-<digits>" go test appends to names.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// normalize maps both naming schemes onto one key: `go test` prints
// "BenchmarkPeriodicStep/N=20-8" where the JSON records "PeriodicStep/N=20".
func normalize(name string) string {
	name = strings.TrimPrefix(name, "Benchmark")
	return gomaxprocsSuffix.ReplaceAllString(name, "")
}

// parseBenchOutput extracts the benchmark rows of `go test -bench`
// output in input order, under normalized names. Non-benchmark lines
// (PASS, ok, goos) are ignored; a benchmark listed twice (-count > 1)
// keeps its first position and its last measurement.
func parseBenchOutput(r io.Reader) ([]result, error) {
	var out []result
	at := map[string]int{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		res := result{Name: normalize(m[1])}
		var err error
		if res.Iterations, err = strconv.ParseInt(m[2], 10, 64); err != nil {
			return nil, fmt.Errorf("bad iteration count in %q: %w", sc.Text(), err)
		}
		if res.NsPerOp, err = strconv.ParseFloat(m[3], 64); err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %w", sc.Text(), err)
		}
		if m[4] != "" {
			if res.BytesPerOp, err = strconv.ParseInt(m[4], 10, 64); err != nil {
				return nil, fmt.Errorf("bad B/op in %q: %w", sc.Text(), err)
			}
			res.hasBytes = true
		}
		if res.AllocsPerOp, err = strconv.ParseInt(m[5], 10, 64); err != nil {
			return nil, fmt.Errorf("bad allocs/op in %q: %w", sc.Text(), err)
		}
		if i, ok := at[res.Name]; ok {
			out[i] = res
			continue
		}
		at[res.Name] = len(out)
		out = append(out, res)
	}
	return out, sc.Err()
}

// newestSnapshot returns the highest-numbered BENCH_NNNN.json in dir and
// its number, or ("", 0) when dir holds none. Only a numeric suffix
// makes a snapshot, so a stray BENCH_notes.json is never the baseline.
func newestSnapshot(dir string) (string, int, error) {
	names, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return "", 0, err
	}
	newest, num := "", 0
	for _, name := range names {
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(name), "BENCH_"), ".json"))
		if err == nil && n > num {
			newest, num = name, n
		}
	}
	return newest, num, nil
}

// writeBench writes buf to dir as BENCH_NNNN.json, numbered one past the
// newest snapshot there (BENCH_0001.json in a directory with none), and
// returns the path. Snapshots are a trajectory: it never overwrites one,
// and fails if the file appears before it is created.
func writeBench(dir string, buf []byte) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	_, num, err := newestSnapshot(dir)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("BENCH_%04d.json", num+1))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return "", err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// byteSlack is the headroom the bytes gate allows over a baseline: a
// 0 B/op baseline is exact (a zero-alloc path acquiring any allocation
// fails), others get 12.5% plus 8 bytes so integer-truncated means of
// rare allocations don't flap CI.
func byteSlack(base int64) int64 {
	if base == 0 {
		return 0
	}
	return base/8 + 8
}

// options are the command-line settings run acts on.
type options struct {
	baseline  string  // snapshot to gate against; "" = newest in dir
	dir       string  // where snapshots live and -record writes
	tolerance float64 // allowed fractional ns/op regression
	record    bool    // write the input as the next snapshot if the gate passes
}

func run(o options, stdin io.Reader, stdout, stderr io.Writer) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "benchguard: "+format+"\n", args...)
		return 1
	}
	baselinePath := o.baseline
	if baselinePath != "" && o.record {
		return fail("-record gates against the newest snapshot in %s; it takes no -baseline", o.dir)
	}
	if baselinePath == "" {
		p, _, err := newestSnapshot(o.dir)
		if err != nil {
			return fail("%v", err)
		}
		if p == "" {
			return fail("no BENCH_NNNN.json under %s", o.dir)
		}
		baselinePath = p
		fmt.Fprintf(stdout, "benchguard: baseline %s (newest in %s)\n", baselinePath, o.dir)
	}
	buf, err := os.ReadFile(baselinePath)
	if err != nil {
		return fail("%v", err)
	}
	var base snapshot
	if err := json.Unmarshal(buf, &base); err != nil {
		return fail("parse %s: %v", baselinePath, err)
	}
	rows, err := parseBenchOutput(stdin)
	if err != nil {
		return fail("%v", err)
	}
	measured := make(map[string]result, len(rows))
	for _, r := range rows {
		measured[r.Name] = r
	}

	var missing []string
	matches, regressions := 0, 0
	for _, b := range base.Benchmarks {
		got, ok := measured[normalize(b.Name)]
		if !ok {
			missing = append(missing, b.Name)
			fmt.Fprintf(stdout, "%-42s baseline %3d allocs/op %6d B/op %10.1f ns/op, not in the input  MISSING\n",
				b.Name, b.AllocsPerOp, b.BytesPerOp, b.NsPerOp)
			continue
		}
		matches++
		status := "ok"
		// 1% headroom on allocs/op: integer division keeps the gate exact
		// for the alloc-free and near-alloc-free hot paths (1% of 0 or of
		// 9 is 0), while the parallel-engine benchmarks — tens of
		// thousands of inherent allocations plus goroutine machinery —
		// wobble by a few counts with scheduler interleaving and must not
		// flap CI.
		switch {
		case got.AllocsPerOp > b.AllocsPerOp+b.AllocsPerOp/100:
			status = "REGRESSION(allocs)"
			regressions++
		case got.hasBytes && got.BytesPerOp > b.BytesPerOp+byteSlack(b.BytesPerOp):
			// Exact at 0 B/op — a zero-alloc path acquiring any allocation
			// fails — with 12.5% + 8 bytes of headroom elsewhere: B/op is an
			// integer-truncated mean, so small baselines wobble by whole
			// objects when one rare allocation lands a few more or fewer
			// times per run.
			status = "REGRESSION(bytes)"
			regressions++
		case b.NsPerOp > 0 && got.NsPerOp > b.NsPerOp*(1+o.tolerance):
			// A baseline recorded before the time gate existed carries
			// ns_per_op 0; skip the time comparison rather than flag it.
			status = "REGRESSION(ns)"
			regressions++
		}
		fmt.Fprintf(stdout, "%-42s baseline %3d allocs/op %6d B/op %10.1f ns/op, measured %3d allocs/op %6d B/op %10.1f ns/op  %s\n",
			b.Name, b.AllocsPerOp, b.BytesPerOp, b.NsPerOp, got.AllocsPerOp, got.BytesPerOp, got.NsPerOp, status)
	}
	if matches == 0 {
		return fail("no benchmark in the input matched the baseline %s — name drift?", baselinePath)
	}
	if regressions > 0 {
		return fail("%d of %d benchmarks regressed (allocs/op strict, ns/op tolerance %.0f%%)",
			regressions, matches, o.tolerance*100)
	}
	if len(missing) > 0 && !o.record {
		return fail("%d baseline benchmarks missing from the input: %s (-record drops them)",
			len(missing), strings.Join(missing, ", "))
	}
	fmt.Fprintf(stdout, "benchguard: %d benchmarks within baseline (ns/op tolerance %.0f%%)\n", matches, o.tolerance*100)
	if !o.record {
		return 0
	}

	for _, r := range rows {
		if !r.hasBytes {
			return fail("-record needs a B/op column on every row; %s has none (run go test with -benchmem)", r.Name)
		}
	}
	for _, name := range missing {
		fmt.Fprintf(stdout, "benchguard: dropped %s (in %s, not in the input)\n", name, baselinePath)
	}
	snap := snapshot{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		Benchmarks: rows,
	}
	out, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fail("%v", err)
	}
	path, err := writeBench(o.dir, append(out, '\n'))
	if err != nil {
		return fail("%v", err)
	}
	fmt.Fprintf(stdout, "benchguard: wrote %s (%d benchmarks)\n", path, len(rows))
	return 0
}

func main() {
	var o options
	flag.StringVar(&o.baseline, "baseline", "", "BENCH_NNNN.json to gate against (default: the newest in out/)")
	flag.Float64Var(&o.tolerance, "tolerance", 0.25, "allowed fractional ns/op regression before failing")
	flag.BoolVar(&o.record, "record", false, "if the gate passes, write the input as the next out/BENCH_NNNN.json")
	flag.Parse()
	o.dir = "out"
	os.Exit(run(o, os.Stdin, os.Stdout, os.Stderr))
}
