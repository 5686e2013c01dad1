package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: routesync/internal/bench
cpu: some CPU
BenchmarkDESScheduleStep-8     	15734137	        71.20 ns/op	       0 B/op	       0 allocs/op
BenchmarkDESScheduleCancel-8   	96209042	        12.45 ns/op	       0 B/op	       0 allocs/op
BenchmarkPeriodicStep/N=20-8   	12131853	        94.42 ns/op	      16 B/op	       2 allocs/op
BenchmarkNewInThisPR-8         	  100000	      1000 ns/op	      64 B/op	       9 allocs/op
PASS
ok  	routesync/internal/bench	10.0s
`

func TestNormalize(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkDESScheduleStep-8":  "DESScheduleStep",
		"BenchmarkPeriodicStep/N=20":  "PeriodicStep/N=20",
		"PeriodicStep/N=1000":         "PeriodicStep/N=1000",
		"BenchmarkClusterGrow/N=20-4": "ClusterGrow/N=20",
	} {
		if got := normalize(in); got != want {
			t.Errorf("normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseBenchOutput(t *testing.T) {
	m, err := parseBenchOutput(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := []result{
		{Name: "DESScheduleStep", Iterations: 15734137, NsPerOp: 71.20, AllocsPerOp: 0, hasBytes: true},
		{Name: "DESScheduleCancel", Iterations: 96209042, NsPerOp: 12.45, AllocsPerOp: 0, hasBytes: true},
		{Name: "PeriodicStep/N=20", Iterations: 12131853, NsPerOp: 94.42, BytesPerOp: 16, AllocsPerOp: 2, hasBytes: true},
		{Name: "NewInThisPR", Iterations: 100000, NsPerOp: 1000, BytesPerOp: 64, AllocsPerOp: 9, hasBytes: true},
	}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("parsed %+v\nwant %+v", m, want)
	}
	// A repeated benchmark (-count > 1) keeps its place and its last line.
	m, err = parseBenchOutput(strings.NewReader(sampleBenchOutput +
		"BenchmarkDESScheduleStep-8   100   80.00 ns/op   0 B/op   0 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 4 || m[0].Name != "DESScheduleStep" || m[0].NsPerOp != 80 {
		t.Fatalf("repeat: parsed %+v", m)
	}
}

func writeBaseline(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const baselineJSON = `{
  "benchmarks": [
    {"name": "DESScheduleStep", "ns_per_op": 70.0, "bytes_per_op": 0, "allocs_per_op": 0},
    {"name": "DESScheduleCancel", "ns_per_op": 12.0, "bytes_per_op": 0, "allocs_per_op": 0},
    {"name": "PeriodicStep/N=20", "ns_per_op": 90.0, "bytes_per_op": 16, "allocs_per_op": 2}
  ]
}`

func TestGuardPasses(t *testing.T) {
	var out, errb bytes.Buffer
	// The sample runs a few percent over each ns/op baseline — inside the
	// default tolerance.
	code := run(options{baseline: writeBaseline(t, baselineJSON), tolerance: 0.25}, strings.NewReader(sampleBenchOutput), &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
	// Three matches; NewInThisPR is not in the baseline and is not gated.
	if !strings.Contains(out.String(), "3 benchmarks within baseline") {
		t.Fatalf("stdout = %q", out.String())
	}
}

func TestGuardCatchesAllocRegression(t *testing.T) {
	regressed := strings.Replace(sampleBenchOutput,
		"BenchmarkDESScheduleStep-8     	15734137	        71.20 ns/op	       0 B/op	       0 allocs/op",
		"BenchmarkDESScheduleStep-8     	15734137	        71.20 ns/op	      16 B/op	       1 allocs/op", 1)
	var out, errb bytes.Buffer
	code := run(options{baseline: writeBaseline(t, baselineJSON), tolerance: 0.25}, strings.NewReader(regressed), &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(out.String(), "DESScheduleStep") || !strings.Contains(out.String(), "REGRESSION(allocs)") {
		t.Fatalf("stdout = %q", out.String())
	}
	if !strings.Contains(errb.String(), "1 of 3 benchmarks regressed") {
		t.Fatalf("stderr = %q", errb.String())
	}
}

func TestGuardCatchesTimeRegression(t *testing.T) {
	// 71.20 → 120 ns/op against a 70.0 baseline: 71% over, past the 25%
	// tolerance; allocs unchanged.
	regressed := strings.Replace(sampleBenchOutput,
		"        71.20 ns/op	       0 B/op	       0 allocs/op",
		"        120.00 ns/op	       0 B/op	       0 allocs/op", 1)
	var out, errb bytes.Buffer
	code := run(options{baseline: writeBaseline(t, baselineJSON), tolerance: 0.25}, strings.NewReader(regressed), &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout %q", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION(ns)") {
		t.Fatalf("stdout = %q", out.String())
	}
	// A wider tolerance must accept the same measurement.
	out.Reset()
	errb.Reset()
	if code := run(options{baseline: writeBaseline(t, baselineJSON), tolerance: 1.0}, strings.NewReader(regressed), &out, &errb); code != 0 {
		t.Fatalf("tolerance 1.0: exit %d, stderr %q", code, errb.String())
	}
}

func TestGuardSkipsTimeGateOnZeroBaseline(t *testing.T) {
	// Baselines written before the time gate carry ns_per_op 0 — the guard
	// must not treat every measurement as infinitely regressed.
	base := `{"benchmarks": [{"name": "DESScheduleStep", "allocs_per_op": 0}]}`
	var out, errb bytes.Buffer
	if code := run(options{baseline: writeBaseline(t, base), tolerance: 0.25}, strings.NewReader(sampleBenchOutput), &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
}

func TestGuardRejectsEmptyIntersection(t *testing.T) {
	var out, errb bytes.Buffer
	code := run(options{baseline: writeBaseline(t, `{"benchmarks": [{"name": "Unrelated", "allocs_per_op": 0}]}`), tolerance: 0.25},
		strings.NewReader(sampleBenchOutput), &out, &errb)
	if code != 1 || !strings.Contains(errb.String(), "no benchmark in the input matched") {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
}

func TestGuardAllocHeadroom(t *testing.T) {
	// Large inherently-allocating benchmarks (the parallel engine) wobble
	// by a few allocs/op with goroutine scheduling; 1% headroom absorbs
	// that, while 2% still fails. Zero-alloc baselines stay exact — see
	// TestGuardCatchesAllocRegression's 0 → 1 case.
	base := `{"benchmarks": [{"name": "Big", "ns_per_op": 100, "allocs_per_op": 20000}]}`
	line := "BenchmarkBig-8   100   100.0 ns/op   0 B/op   %d allocs/op\n"
	var out, errb bytes.Buffer
	if code := run(options{baseline: writeBaseline(t, base), tolerance: 0.25},
		strings.NewReader(fmt.Sprintf(line, 20150)), &out, &errb); code != 0 {
		t.Fatalf("+0.75%%: exit %d, stdout %q", code, out.String())
	}
	out.Reset()
	errb.Reset()
	if code := run(options{baseline: writeBaseline(t, base), tolerance: 0.25},
		strings.NewReader(fmt.Sprintf(line, 20400)), &out, &errb); code != 1 {
		t.Fatalf("+2%%: exit %d, want 1", code)
	}
}

func TestGuardCatchesByteRegression(t *testing.T) {
	// Same allocs/op but more bytes/op: a pooled path quietly replaced by
	// one bigger allocation. Exact at a 0 B/op baseline.
	regressed := strings.Replace(sampleBenchOutput,
		"        71.20 ns/op	       0 B/op	       0 allocs/op",
		"        71.20 ns/op	      24 B/op	       0 allocs/op", 1)
	var out, errb bytes.Buffer
	if code := run(options{baseline: writeBaseline(t, baselineJSON), tolerance: 0.25}, strings.NewReader(regressed), &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1\nstdout %q", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION(bytes)") {
		t.Fatalf("stdout = %q", out.String())
	}
}

func TestGuardByteHeadroom(t *testing.T) {
	// Non-zero baselines get 12.5% + 8 B of headroom: B/op is an
	// integer-truncated mean, so rare allocations wobble it by whole
	// objects between runs.
	base := `{"benchmarks": [{"name": "Wobbly", "ns_per_op": 100, "bytes_per_op": 64, "allocs_per_op": 3}]}`
	line := "BenchmarkWobbly-8   100   100.0 ns/op   %d B/op   3 allocs/op\n"
	var out, errb bytes.Buffer
	if code := run(options{baseline: writeBaseline(t, base), tolerance: 0.25},
		strings.NewReader(fmt.Sprintf(line, 80)), &out, &errb); code != 0 {
		t.Fatalf("64+16: exit %d, stdout %q", code, out.String())
	}
	out.Reset()
	errb.Reset()
	if code := run(options{baseline: writeBaseline(t, base), tolerance: 0.25},
		strings.NewReader(fmt.Sprintf(line, 81)), &out, &errb); code != 1 {
		t.Fatalf("64+17: exit %d, want 1", code)
	}
}

func TestGuardSkipsBytesWithoutColumn(t *testing.T) {
	// Output without -benchmem carries no B/op column; the bytes gate
	// must skip rather than read 0 and pass or fail spuriously.
	base := `{"benchmarks": [{"name": "PeriodicStep/N=20", "ns_per_op": 90.0, "bytes_per_op": 16, "allocs_per_op": 2}]}`
	noBytes := "BenchmarkPeriodicStep/N=20-8   100   94.42 ns/op   2 allocs/op\n"
	var out, errb bytes.Buffer
	if code := run(options{baseline: writeBaseline(t, base), tolerance: 0.25}, strings.NewReader(noBytes), &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
}

func TestNewestBaseline(t *testing.T) {
	dir := t.TempDir()
	// BENCH_notes.json sorts after every numbered file but is not a
	// snapshot: the newest is the highest number.
	for _, name := range []string{"BENCH_0002.json", "BENCH_0010.json", "BENCH_0004.json", "BENCH_notes.json", "TIMINGS.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, num, err := newestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(got) != "BENCH_0010.json" || num != 10 {
		t.Fatalf("newestSnapshot = (%q, %d), want BENCH_0010.json", got, num)
	}
	if got, num, err := newestSnapshot(t.TempDir()); got != "" || num != 0 || err != nil {
		t.Fatalf("empty dir: newestSnapshot = (%q, %d, %v), want none", got, num, err)
	}
	var out, errb bytes.Buffer
	if code := run(options{dir: t.TempDir(), tolerance: 0.25}, strings.NewReader(sampleBenchOutput), &out, &errb); code != 1 ||
		!strings.Contains(errb.String(), "no BENCH_NNNN.json") {
		t.Fatalf("no snapshot: exit %d, stderr %q", code, errb.String())
	}
}

func TestGuardMissingBaseline(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(options{baseline: filepath.Join(t.TempDir(), "nope.json"), tolerance: 0.25}, strings.NewReader(""), &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}

func TestGuardFailsOnMissingRow(t *testing.T) {
	// A baseline row the input lacks is a benchmark the gate no longer
	// watches: the plain gate fails and names each such row.
	base := strings.Replace(baselineJSON, `"allocs_per_op": 2}`,
		`"allocs_per_op": 2},
    {"name": "OnlyInBaseline", "ns_per_op": 1.0, "allocs_per_op": 0},
    {"name": "AlsoGone/N=5", "ns_per_op": 1.0, "allocs_per_op": 0}`, 1)
	var out, errb bytes.Buffer
	code := run(options{baseline: writeBaseline(t, base), tolerance: 0.25}, strings.NewReader(sampleBenchOutput), &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstdout %q", code, out.String())
	}
	if !strings.Contains(errb.String(), "2 baseline benchmarks missing from the input: OnlyInBaseline, AlsoGone/N=5") {
		t.Fatalf("stderr = %q", errb.String())
	}
	if !strings.Contains(out.String(), "MISSING") {
		t.Fatalf("stdout = %q", out.String())
	}
}

// snapshotDir returns a directory holding baselineJSON as BENCH_0011.json.
func snapshotDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "BENCH_0011.json"), []byte(baselineJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestRecordWritesNextSnapshot(t *testing.T) {
	dir := snapshotDir(t)
	var out, errb bytes.Buffer
	if code := run(options{dir: dir, tolerance: 0.25, record: true}, strings.NewReader(sampleBenchOutput), &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
	buf, err := os.ReadFile(filepath.Join(dir, "BENCH_0012.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshot
	if err := json.Unmarshal(buf, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.GoVersion != runtime.Version() || snap.GOOS != runtime.GOOS || snap.GOARCH != runtime.GOARCH || snap.NumCPU != runtime.NumCPU() {
		t.Fatalf("header = %+v", snap)
	}
	// Every input row is kept, NewInThisPR included, in input order.
	var names []string
	for _, b := range snap.Benchmarks {
		names = append(names, b.Name)
	}
	if want := "DESScheduleStep DESScheduleCancel PeriodicStep/N=20 NewInThisPR"; strings.Join(names, " ") != want {
		t.Fatalf("recorded %v, want %s", names, want)
	}
	if b := snap.Benchmarks[2]; b.Iterations != 12131853 || b.NsPerOp != 94.42 || b.BytesPerOp != 16 || b.AllocsPerOp != 2 {
		t.Fatalf("PeriodicStep/N=20 recorded as %+v", b)
	}

	// The next record takes the next number and leaves both files as
	// they were.
	old, _ := os.ReadFile(filepath.Join(dir, "BENCH_0011.json"))
	out.Reset()
	if code := run(options{dir: dir, tolerance: 0.25, record: true}, strings.NewReader(sampleBenchOutput), &out, &errb); code != 0 {
		t.Fatalf("second record: exit %d, stderr %q", code, errb.String())
	}
	if !strings.Contains(out.String(), "baseline "+filepath.Join(dir, "BENCH_0012.json")) ||
		!strings.Contains(out.String(), "wrote "+filepath.Join(dir, "BENCH_0013.json")) {
		t.Fatalf("second record: stdout %q", out.String())
	}
	for name, want := range map[string][]byte{"BENCH_0011.json": old, "BENCH_0012.json": buf} {
		if got, _ := os.ReadFile(filepath.Join(dir, name)); !bytes.Equal(got, want) {
			t.Fatalf("%s changed", name)
		}
	}
}

func TestRecordedSnapshotIsNextBaseline(t *testing.T) {
	// A recorded file is a baseline like any committed one: the plain
	// gate picks it as newest and accepts the run it recorded, new rows
	// included.
	dir := snapshotDir(t)
	var out, errb bytes.Buffer
	if code := run(options{dir: dir, tolerance: 0.25, record: true}, strings.NewReader(sampleBenchOutput), &out, &errb); code != 0 {
		t.Fatalf("record: exit %d, stderr %q", code, errb.String())
	}
	out.Reset()
	if code := run(options{dir: dir, tolerance: 0.25}, strings.NewReader(sampleBenchOutput), &out, &errb); code != 0 {
		t.Fatalf("gate: exit %d, stderr %q", code, errb.String())
	}
	if !strings.Contains(out.String(), "BENCH_0012.json") || !strings.Contains(out.String(), "4 benchmarks within baseline") {
		t.Fatalf("gate: stdout %q", out.String())
	}
}

func TestRecordRefusesFailingGate(t *testing.T) {
	dir := snapshotDir(t)
	regressed := strings.Replace(sampleBenchOutput, "        71.20 ns/op", "        120.00 ns/op", 1)
	noBytes := "BenchmarkPeriodicStep/N=20-8   100   94.42 ns/op   2 allocs/op\n"
	for name, tc := range map[string]struct {
		o     options
		input string
		want  string
	}{
		"ns regression":  {options{dir: dir, tolerance: 0.25, record: true}, regressed, "1 of 3 benchmarks regressed"},
		"name drift":     {options{dir: dir, tolerance: 0.25, record: true}, "BenchmarkOther-8 10 1 ns/op 0 B/op 0 allocs/op\n", "name drift"},
		"no B/op column": {options{dir: dir, tolerance: 0.25, record: true}, noBytes, "needs a B/op column"},
		"explicit baseline": {options{baseline: filepath.Join(dir, "BENCH_0011.json"), dir: dir, tolerance: 0.25, record: true},
			sampleBenchOutput, "takes no -baseline"},
	} {
		var out, errb bytes.Buffer
		if code := run(tc.o, strings.NewReader(tc.input), &out, &errb); code != 1 || !strings.Contains(errb.String(), tc.want) {
			t.Errorf("%s: exit %d, stderr %q, want %q", name, code, errb.String(), tc.want)
		}
		if _, err := os.Stat(filepath.Join(dir, "BENCH_0012.json")); err == nil {
			t.Fatalf("%s: wrote BENCH_0012.json", name)
		}
	}
}

func TestRecordDropsMissingRows(t *testing.T) {
	// A change that deletes a benchmark can still record: the row is
	// listed as dropped and the new snapshot no longer carries it.
	dir := t.TempDir()
	base := strings.Replace(baselineJSON, `"allocs_per_op": 2}`,
		`"allocs_per_op": 2},
    {"name": "OnlyInBaseline", "ns_per_op": 1.0, "allocs_per_op": 0}`, 1)
	if err := os.WriteFile(filepath.Join(dir, "BENCH_0003.json"), []byte(base), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run(options{dir: dir, tolerance: 0.25, record: true}, strings.NewReader(sampleBenchOutput), &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
	if !strings.Contains(out.String(), "dropped OnlyInBaseline") {
		t.Fatalf("stdout = %q", out.String())
	}
	buf, err := os.ReadFile(filepath.Join(dir, "BENCH_0004.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf, []byte("OnlyInBaseline")) {
		t.Fatalf("BENCH_0004.json still lists the dropped row")
	}
}

// TestWriteBenchNumbersPastNewest checks that snapshots form a
// trajectory: each write takes the number after the highest
// BENCH_NNNN.json in the directory, and no existing file changes.
func TestWriteBenchNumbersPastNewest(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "out")
	path, err := writeBench(dir, []byte("first"))
	if err != nil || path != filepath.Join(dir, "BENCH_0001.json") {
		t.Fatalf("new dir: writeBench = (%q, %v), want BENCH_0001.json", path, err)
	}
	old := map[string]string{"BENCH_0001.json": "first"}
	for _, name := range []string{"BENCH_0009.json", "BENCH_0004.json", "BENCH_notes.json", "TIMINGS.json"} {
		old[name] = "old " + name
		if err := os.WriteFile(filepath.Join(dir, name), []byte(old[name]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []string{"BENCH_0010.json", "BENCH_0011.json"} {
		path, err := writeBench(dir, []byte(want))
		if err != nil || path != filepath.Join(dir, want) {
			t.Fatalf("writeBench = (%q, %v), want %s", path, err, want)
		}
		if got, _ := os.ReadFile(path); string(got) != want {
			t.Fatalf("%s holds %q", want, got)
		}
	}
	for name, want := range old {
		if got, _ := os.ReadFile(filepath.Join(dir, name)); string(got) != want {
			t.Fatalf("%s now holds %q, want %q", name, got, want)
		}
	}
}
