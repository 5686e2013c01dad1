// Package smoke exercises the five command-line frontends and the eight
// example walkthroughs end to end: each test execs a freshly built
// binary and checks exit codes, the programs' exact stdout against
// golden files, flag validation, and the incremental-manifest contract
// of cmd/figures. These are the tests that would catch a flag wiring
// regression no unit test sees.
package smoke

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// binDir holds the binaries TestMain builds, each named after the last
// element of its package path.
var binDir string

var programs = []string{
	"cmd/figures", "cmd/syncsim", "cmd/markovtool", "cmd/netexp", "cmd/scenarios",
	"examples/audiocast", "examples/jitterplan", "examples/lsarefresh", "examples/nearnet",
	"examples/phasetransition", "examples/quickstart", "examples/spriteserver", "examples/tcpglobalsync",
}

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "smoke-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "smoke:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	binDir = dir
	for _, pkg := range programs {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, filepath.Base(pkg)), "./"+pkg)
		cmd.Dir = "../.." // module root
		if out, err := cmd.CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "smoke: build %s: %v\n%s", pkg, err, out)
			os.Exit(1)
		}
	}
	os.Exit(m.Run())
}

// run execs a built binary and returns stdout, stderr, and the exit code.
func run(t *testing.T, name string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, name), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s %v: %v", name, args, err)
		}
		code = ee.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

// TestToolGolden pins the stdout of each tool and example byte for byte.
// The golden files under testdata/ were recorded from the programs'
// output; regenerate one by running its invocation and redirecting
// stdout into the file.
func TestToolGolden(t *testing.T) {
	cases := []struct {
		golden string
		cmd    string
		args   []string
	}{
		{"syncsim_run", "syncsim", []string{"-n", "5", "-horizon", "1e4"}},
		{"syncsim_ensemble", "syncsim", []string{"-n", "10", "-tr", "0.1", "-ensemble", "4", "-horizon", "5e5"}},
		{"markovtool_table", "markovtool", nil},
		{"markovtool_sweep_tr", "markovtool", []string{"-sweep", "tr"}},
		{"markovtool_sweep_n", "markovtool", []string{"-sweep", "n", "-lo", "3", "-hi", "30", "-tr", "0.3"}},
		{"markovtool_sweep_threshold", "markovtool", []string{"-sweep", "threshold", "-lo", "5", "-hi", "50"}},
		{"netexp_ping", "netexp", []string{"-scenario", "ping", "-pings", "40", "-routes", "50", "-plot=false"}},
		{"netexp_audio", "netexp", []string{"-scenario", "audio", "-duration", "60", "-routes", "50"}},
		{"scenarios_all", "scenarios", []string{"-which", "all"}},
		{"example_audiocast", "audiocast", nil},
		{"example_jitterplan", "jitterplan", nil},
		{"example_lsarefresh", "lsarefresh", nil},
		{"example_nearnet", "nearnet", nil},
		{"example_phasetransition", "phasetransition", nil},
		{"example_quickstart", "quickstart", nil},
		{"example_spriteserver", "spriteserver", nil},
		{"example_tcpglobalsync", "tcpglobalsync", nil},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			stdout, stderr, code := run(t, c.cmd, c.args...)
			if code != 0 {
				t.Fatalf("%s %v: exit %d\nstderr: %s", c.cmd, c.args, code, stderr)
			}
			if stdout != string(want) {
				t.Fatalf("%s %v: stdout differs from testdata/%s.golden\ngot:\n%s\nwant:\n%s",
					c.cmd, c.args, c.golden, stdout, want)
			}
		})
	}
}

func TestFiguresQuickIncremental(t *testing.T) {
	out := t.TempDir()

	// A fresh quick run regenerates everything and writes the bookkeeping.
	stdout, stderr, code := run(t, "figures", "-out", out, "-quick")
	if code != 0 {
		t.Fatalf("figures exit %d\nstderr: %s", code, stderr)
	}
	// Derive the roster size from the run itself rather than hardcoding
	// it: a count here went stale (and was masked by test-result caching)
	// when a PR registered a new experiment. The floor only guards
	// against the registry collapsing.
	m := regexp.MustCompile(`wrote (\d+) figures`).FindStringSubmatch(stdout)
	if !strings.Contains(stdout, "== fig01 (") || m == nil {
		t.Fatalf("figures stdout = %q", stdout)
	}
	total, _ := strconv.Atoi(m[1])
	if total < 33 {
		t.Fatalf("only %d figures registered, expected at least 33", total)
	}
	if strings.Contains(stdout, "cached") {
		t.Fatal("fresh run claimed cached results")
	}
	for _, f := range []string{"INDEX.md", "TIMINGS.json", "MANIFEST.json", "fig04.csv", "fig04.txt"} {
		if _, err := os.Stat(filepath.Join(out, f)); err != nil {
			t.Errorf("missing %s after full run: %v", f, err)
		}
	}

	// The second identical invocation skips every experiment.
	stdout, stderr, code = run(t, "figures", "-out", out, "-quick")
	if code != 0 {
		t.Fatalf("second figures exit %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "== fig01 (") || !strings.Contains(stdout, fmt.Sprintf("%d cached", total)) {
		t.Fatalf("second run should cache all %d, stdout = %q", total, stdout)
	}

	// -force -only re-runs exactly the selection, leaving the index alone.
	index0, err := os.ReadFile(filepath.Join(out, "INDEX.md"))
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code = run(t, "figures", "-out", out, "-quick", "-force", "-only", "fig04")
	if code != 0 {
		t.Fatalf("forced partial exit %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "== fig04 (") || strings.Contains(stdout, "cached") {
		t.Fatalf("forced partial stdout = %q", stdout)
	}
	index1, _ := os.ReadFile(filepath.Join(out, "INDEX.md"))
	if !bytes.Equal(index0, index1) {
		t.Fatal("partial run rewrote INDEX.md")
	}

	// Scale change (quick → paper) must invalidate the cache, not reuse it.
	stdout, _, code = run(t, "figures", "-out", out, "-quick=false", "-only", "fig04")
	if code != 0 || strings.Contains(stdout, "cached") {
		t.Fatalf("scale change reused cache: exit %d stdout = %q", code, stdout)
	}
}

func TestFiguresUnknownOnly(t *testing.T) {
	_, stderr, code := run(t, "figures", "-out", t.TempDir(), "-quick", "-only", "fig99")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr, "unknown figure id(s): fig99") || !strings.Contains(stderr, "known ids:") {
		t.Fatalf("stderr = %q", stderr)
	}
}

func TestSyncsimStartValidation(t *testing.T) {
	_, stderr, code := run(t, "syncsim", "-start", "synced")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr, `unknown -start "synced" (allowed: unsync, sync)`) {
		t.Fatalf("stderr = %q", stderr)
	}
}

func TestSyncsimRun(t *testing.T) {
	stdout, stderr, code := run(t, "syncsim", "-n", "5", "-horizon", "1e4", "-analyze=false")
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "parameters: N=5") || !strings.Contains(stdout, "cluster events processed") {
		t.Fatalf("stdout = %q", stdout)
	}
}

func TestMarkovtoolSweepValidation(t *testing.T) {
	_, stderr, code := run(t, "markovtool", "-sweep", "bogus")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr, `unknown sweep "bogus" (allowed: '', threshold, tr, n)`) {
		t.Fatalf("stderr = %q", stderr)
	}
}

// TestMarkovtoolBadRange checks that a sweep range that could never
// finish, or never start, is rejected before any work.
func TestMarkovtoolBadRange(t *testing.T) {
	for _, args := range [][]string{
		{"-sweep", "tr", "-step", "0"},
		{"-sweep", "tr", "-step", "-0.05"},
		{"-sweep", "tr", "-step", "NaN"},
		{"-sweep", "n", "-lo", "NaN"},
		{"-sweep", "threshold", "-hi", "Inf"},
	} {
		stdout, stderr, code := run(t, "markovtool", args...)
		if code != 1 || stdout != "" || !strings.HasPrefix(stderr, "markovtool: need finite -lo, -hi and -step") {
			t.Errorf("markovtool %v: exit %d, stdout %q, stderr %q", args, code, stdout, stderr)
		}
	}
}

func TestMarkovtoolTable(t *testing.T) {
	stdout, stderr, code := run(t, "markovtool")
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "Markov") && !strings.Contains(stdout, "f(") {
		t.Fatalf("stdout = %q", stdout)
	}
}

func TestNetexpScenarioValidation(t *testing.T) {
	_, stderr, code := run(t, "netexp", "-scenario", "video")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr, `unknown scenario "video" (allowed: ping, audio)`) {
		t.Fatalf("stderr = %q", stderr)
	}
}

// TestNetexpBadFlags checks that out-of-range flags fail with one line
// instead of a panic, and that zero is not silently read as a default.
func TestNetexpBadFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-routers", "1"}, "netexp: -routers 1: a LAN needs at least 2 routers\n"},
		{[]string{"-routers", "0"}, "netexp: -routers 0: a LAN needs at least 2 routers\n"},
		{[]string{"-routes", "-5"}, "netexp: -routes -5 out of range [1, 2048]\n"},
		{[]string{"-routes", "0"}, "netexp: -routes 0 out of range [1, 2048]\n"},
		{[]string{"-routes", "2049"}, "netexp: -routes 2049 out of range [1, 2048]\n"},
		{[]string{"-pings", "0"}, "netexp: -pings 0: need at least 1\n"},
		{[]string{"-scenario", "audio", "-duration", "0"}, "netexp: -duration 0: need a finite duration > 0\n"},
		{[]string{"-scenario", "audio", "-duration", "-1"}, "netexp: -duration -1: need a finite duration > 0\n"},
		{[]string{"-scenario", "audio", "-duration", "NaN"}, "netexp: -duration NaN: need a finite duration > 0\n"},
	}
	for _, c := range cases {
		stdout, stderr, code := run(t, "netexp", c.args...)
		if code != 1 || stdout != "" || stderr != c.want {
			t.Errorf("netexp %v: exit %d, stdout %q, stderr %q; want exit 1, stderr %q",
				c.args, code, stdout, stderr, c.want)
		}
	}
}

func TestNetexpPing(t *testing.T) {
	stdout, stderr, code := run(t, "netexp", "-scenario", "ping", "-pings", "40", "-routes", "50", "-plot=false")
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "ping") {
		t.Fatalf("stdout = %q", stdout)
	}
}

func TestScenariosWhichValidation(t *testing.T) {
	_, stderr, code := run(t, "scenarios", "-which", "nfs")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr, `unknown -which "nfs" (allowed: tcp, clientserver, clock, all)`) {
		t.Fatalf("stderr = %q", stderr)
	}
}

func TestScenariosTCP(t *testing.T) {
	stdout, stderr, code := run(t, "scenarios", "-which", "tcp", "-seed", "7")
	if code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, stderr)
	}
	if stdout == "" {
		t.Fatal("empty stdout")
	}
}
