package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"routesync/internal/des"
)

// tinyWorkloads are the benchmark's workloads at smoke-test sizes, with
// the benchmark sizes' metric names.
var tinyWorkloads = map[string]workloadRunner{
	"rip_scale":    &packetWorkload{name: "rip_scale", build: ripScale(100, 10, 40)},
	"bgp_mrai":     &bgpWorkload{ases: 300, mrai: 5, horizon: 160},
	"metro_lan":    &packetWorkload{name: "metro_lan", build: metroLAN(4, 3, 30)},
	"model_largen": &modelWorkload{cases: modelCases(1000, 20, 100000, 1)},
}

type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// parseResult checks that out names every metric of defs with its unit,
// on its own line and in the result, and returns the result.
func parseResult(t *testing.T, workload, out string, defs []metricDef) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	printed := map[string]string{}
	for _, l := range lines {
		if f := strings.Fields(l); len(f) == 4 && f[0] == workload {
			printed[f[1]] = f[3]
		}
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: result has %d metrics, want %d", workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if printed[d.Name] != d.Unit {
			t.Errorf("%s: metric %s printed with unit %q, want %q", workload, d.Name, printed[d.Name], d.Unit)
		}
		if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("%s: result metric %s = %+v, want unit %q", workload, d.Name, m, d.Unit)
		}
	}
	return res
}

// TestSmoke runs every workload at a tiny size, untraced and traced, on
// the default seed and on a held-out one, and checks that each run
// passes its checks and prints every named metric with its unit.
func TestSmoke(t *testing.T) {
	for name, w := range tinyWorkloads {
		for _, seed := range []int64{2, 8} {
			for _, traced := range []bool{false, true} {
				rep := newReport(name)
				defs := endToEnd
				if traced {
					w.trace(seed, 1, rep, newSpans())
					defs = perLayer
				} else {
					w.measure(seed, 1, rep)
				}
				var out bytes.Buffer
				if err := rep.write(&out, defs); err != nil {
					t.Fatal(err)
				}
				res := parseResult(t, name, out.String(), defs)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s seed %d traced=%v: correct=%v, %d of %d runs failed: %v",
						name, seed, traced, res.Correct, res.Failed, res.Attempted, rep.errs)
				}
				if v := res.Metrics["run_s"].Value; !traced && v <= 0 {
					t.Errorf("%s: run_s = %v", name, v)
				}
			}
		}
	}
}

// TestWrongDigestFails checks that a run compared with a wrong expected
// digest counts as failed and makes the result incorrect.
func TestWrongDigestFails(t *testing.T) {
	w := tinyWorkloads["rip_scale"].(*packetWorkload)
	sc := w.build(partitions, 2, nil)
	sc.run()
	want := sc.digest()
	if err := sc.verify(want); err != nil {
		t.Fatalf("verify with the right digest: %v", err)
	}
	ref := w.build(1, 2, nil)
	ref.run()
	if d := ref.digest(); d != want {
		t.Fatalf("K=1 digest %x differs from K=%d digest %x", d, partitions, want)
	}
	rep := newReport("rip_scale")
	rep.attempt(func() error { return sc.verify(want ^ 1) })
	var out bytes.Buffer
	if err := rep.write(&out, endToEnd); err != nil {
		t.Fatal(err)
	}
	res := parseResult(t, "rip_scale", out.String(), endToEnd)
	if res.Correct || res.Failed != 1 || res.Attempted != 1 {
		t.Errorf("wrong digest: correct=%v failed=%d attempted=%d, want false 1 1", res.Correct, res.Failed, res.Attempted)
	}

	m := tinyWorkloads["model_largen"].(*modelWorkload)
	outs := make([]caseOut, len(m.cases))
	for i, c := range m.cases {
		outs[i] = runCase(m.setup(2)[i], c.rounds, nil)
	}
	if err := m.check(outs); err != nil {
		t.Fatalf("model check: %v", err)
	}
	d := m.digest(outs, []float64{1, 1})
	if checkDigest(m.digest(outs, []float64{1, 0.5}), d) == nil {
		t.Error("model digest ignores the Markov equilibria")
	}
}

// fireLog collects the times a simulator fires at.
type fireLog struct{ ats []float64 }

func (f *fireLog) EventScheduled(at float64, depth int) {}
func (f *fireLog) EventFired(at float64, depth int)     { f.ats = append(f.ats, at) }
func (f *fireLog) EventCancelled(at float64, depth int) {}

// checkReplay replays rec on both backends and compares the fired times
// with the recorded ones.
func checkReplay(t *testing.T, rec *recorder) {
	t.Helper()
	var want []float64
	for i, k := range rec.kinds {
		if k == opFire {
			want = append(want, rec.ats[i])
		}
	}
	prog := rec.program()
	for _, b := range []des.Backend{des.BackendHeap, des.BackendCalendar} {
		var got fireLog
		prog.replay(b, &got)
		if len(got.ats) != len(want) {
			t.Fatalf("%v: replay fired %d events, recorded %d", b, len(got.ats), len(want))
		}
		for i := range want {
			if got.ats[i] != want[i] {
				t.Fatalf("%v: replayed fire %d at %v, recorded at %v", b, i, got.ats[i], want[i])
			}
		}
	}
}

// TestReplayMatchesRecording records a K=1 scenario run and a random
// schedule/cancel/fire sequence with many same-time events, and checks
// that the replay fires as many events as were recorded, in the same
// time order, on both backends.
func TestReplayMatchesRecording(t *testing.T) {
	rec := &recorder{max: maxRecorded}
	sc := tinyWorkloads["metro_lan"].(*packetWorkload).build(1, 2, rec)
	sc.run()
	if len(rec.kinds) == 0 {
		t.Fatal("nothing recorded")
	}
	checkReplay(t, rec)

	rec = &recorder{max: maxRecorded}
	sim := des.New()
	sim.SetObserver(rec)
	r := rand.New(rand.NewSource(1))
	var pending []des.Event
	for i := 0; i < 20000; i++ {
		switch op := r.Intn(10); {
		case op < 5:
			// Coarse times make ties common.
			at := sim.Now() + float64(r.Intn(8))
			pending = append(pending, sim.ScheduleKeyed(at, uint64(r.Intn(4)), "", noop))
		case op < 7 && len(pending) > 0:
			j := r.Intn(len(pending))
			sim.Cancel(pending[j])
			pending = append(pending[:j], pending[j+1:]...)
		default:
			sim.Step()
		}
	}
	sim.Run()
	if rec.program().cancel == 0 {
		t.Fatal("the random sequence cancelled nothing")
	}
	checkReplay(t, rec)
}

// TestBenchmarkJSONListsMetrics checks that BENCHMARK.json at the
// repository root names exactly the metrics the program reports.
func TestBenchmarkJSONListsMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program %s", got, want)
	}
}

func TestEnvRefused(t *testing.T) {
	if err := checkEnv(); err != nil {
		t.Skipf("ambient engine variable: %v", err)
	}
	t.Setenv("ROUTESYNC_SYNC_MODE", "optimistc")
	if err := checkEnv(); err == nil {
		t.Error("checkEnv accepted ROUTESYNC_SYNC_MODE")
	}
}
