// Command simbench is the repository's end-to-end benchmark. It runs one
// of four simulator workloads for a fixed wall-time budget, checks every
// run's outputs, and prints each end-to-end metric by name with its
// unit; the last line is the result as one JSON object. With -trace 1 it
// additionally runs the workload with observers attached and prints the
// per-layer metrics instead. README.md describes the workloads, the
// metrics, and which layer each metric belongs to.
//
//	go build -o simbench . && ./simbench -workload rip_scale -seed 1 -seconds 15
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"routesync/internal/des"
	"routesync/internal/netsim"
)

// partitions is K, the logical-process count of every partitioned run,
// and maxProcs the GOMAXPROCS the benchmark pins: at most two busy
// goroutines, so figures from machines with more cores stay comparable.
const (
	partitions = 2
	maxProcs   = 2
)

// metricDef names one reported metric.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd lists the metrics every untraced run reports, in print order.
var endToEnd = []metricDef{
	{"run_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"heap_live_mb", "MB", "lower"},
}

// periodicCases are the model_largen runs, named n<N>.<start>.
var periodicCases = []string{"n1000.sync", "n1000.unsync", "n100000.sync", "n100000.unsync"}

// perLayer lists the metrics every traced run reports, in print order.
// A metric whose layer a workload does not exercise reads 0 there.
var perLayer = func() []metricDef {
	m := []metricDef{
		{"experiments.build_s", "s", "lower"},
		{"experiments.cell_run_s.none", "s", "lower"},
		{"experiments.cell_run_s.uniform", "s", "lower"},
		{"des.events_fired", "count", "lower"},
		{"des.events_scheduled", "count", "lower"},
		{"des.events_cancelled", "count", "lower"},
		{"des.queue_peak_depth", "count", "lower"},
		{"des.replay_heap_ns", "ns", "lower"},
		{"des.replay_calendar_ns", "ns", "lower"},
		{"netsim.window_ms_p50", "ms", "lower"},
		{"netsim.window_ms_p90", "ms", "lower"},
		{"netsim.forwarded", "count", "lower"},
		{"netsim.delivered", "count", "higher"},
		{"netsim.drops_queue", "count", "lower"},
		{"netsim.drops_cpu", "count", "lower"},
		{"netsim.live_packets_end", "count", "lower"},
		{"netsim.run_allocs", "count", "lower"},
		{"netsim.run_alloc_mb", "MB", "lower"},
		{"netsim.sync.windows", "count", "lower"},
		{"netsim.sync.windows_per_sim_s", "1/s", "lower"},
		{"netsim.sync.events_per_window", "count", "higher"},
		{"netsim.sync.lookahead_s", "s", "higher"},
		{"netsim.sync.rollbacks", "count", "lower"},
		{"netsim.sync.round_us_p50", "us", "lower"},
		{"netsim.sync.round_us_p90", "us", "lower"},
		{"netsim.sync.k1_run_s", "s", "lower"},
		{"netsim.sync.speedup_k2", "ratio", "higher"},
		{"routing.periodic_sent", "count", "lower"},
		{"routing.triggered_sent", "count", "lower"},
		{"routing.received", "count", "lower"},
		{"routing.route_changes", "count", "lower"},
		{"pathvector.flushes", "count", "lower"},
		{"pathvector.entries", "count", "lower"},
		{"pathvector.best_changes", "count", "lower"},
		{"pathvector.loop_rejected", "count", "lower"},
		{"pathvector.best_change_ratio", "ratio", "higher"},
		{"workload.ping_loss", "fraction", "lower"},
		{"workload.rtt_p50_ms", "ms", "lower"},
	}
	for _, c := range periodicCases {
		m = append(m,
			metricDef{"periodic." + c + ".step_ns_p50", "ns", "lower"},
			metricDef{"periodic." + c + ".step_ns_p90", "ns", "lower"},
			metricDef{"periodic." + c + ".ns_per_firing", "ns", "lower"},
			metricDef{"periodic." + c + ".steps", "count", "lower"},
			metricDef{"periodic." + c + ".firings", "count", "lower"},
		)
	}
	return append(m,
		metricDef{"periodic.n1000.new_ms", "ms", "lower"},
		metricDef{"periodic.n100000.new_ms", "ms", "lower"},
		metricDef{"markov.n1000.solve_ms", "ms", "lower"},
		metricDef{"markov.n100000.solve_ms", "ms", "lower"},
		metricDef{"trace.overhead", "ratio", "lower"},
	)
}()

// report collects one run's outcome: the metric values, how many
// operations (runs) were attempted and how many failed, and the run's
// environment.
type report struct {
	workload  string
	values    map[string]float64
	attempted int
	failed    int
	errs      []string
	samples   []string // per-sample summaries of the medians reported
	env       map[string]any
}

func newReport(workload string) *report {
	return &report{
		workload: workload,
		values:   map[string]float64{},
		env: map[string]any{
			"num_cpu":     runtime.NumCPU(),
			"gomaxprocs":  runtime.GOMAXPROCS(0),
			"k":           partitions,
			"des_backend": des.DefaultBackend().String(),
			"go_version":  runtime.Version(),
		},
	}
}

// attempt runs one operation, counting it failed when it returns an
// error or panics.
func (r *report) attempt(op func() error) {
	r.attempted++
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		return op()
	}()
	if err != nil {
		r.failed++
		r.errs = append(r.errs, err.Error())
	}
}

// syncMode records the partition synchronization mode a run realized.
func (r *report) syncMode(nw *netsim.Network) { r.env["sync_mode"] = nw.SyncMode().String() }

// write prints every metric of defs by name with its unit, the failure
// rate and the environment, then the result as the last line.
func (r *report) write(w io.Writer, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v := r.values[d.Name]
		metrics[d.Name] = value{v, d.Unit}
		fmt.Fprintf(w, "%s %-34s %.6g %s\n", r.workload, d.Name, v, d.Unit)
	}
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%s %-34s %g fraction (%d of %d runs)\n", r.workload, "fail_rate", rate, r.failed, r.attempted)
	for _, l := range r.samples {
		fmt.Fprintf(w, "%s %s\n", r.workload, l)
	}
	for _, e := range r.errs {
		fmt.Fprintf(w, "%s failure: %s\n", r.workload, e)
	}
	env, err := json.Marshal(r.env)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s env %s\n", r.workload, env)
	res, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", res)
	return err
}

// checkEnv refuses the variables that switch the simulator's engines: a
// benchmark run always measures the defaults, and a typo cannot silently
// change what is measured.
func checkEnv() error {
	for _, v := range []string{"ROUTESYNC_DES_BACKEND", netsim.SyncModeEnv} {
		if val, ok := os.LookupEnv(v); ok {
			return fmt.Errorf("%s=%q is set; unset it, the benchmark measures the default engines", v, val)
		}
	}
	return nil
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed, >= 0: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 15, "wall-time budget of the measured loop, in seconds")
	traced := flag.Int("trace", 0, "1: also run traced and print the per-layer metrics")
	spansOut := flag.String("spans", "", "traced runs: write the recorded spans as JSON to this file")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(2)
	}
	if err := checkEnv(); err != nil {
		fail(err)
	}
	w, ok := workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", ")))
	}
	if *seed < 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fail(fmt.Errorf("need -seed >= 0, -seconds > 0 and -trace 0 or 1"))
	}
	runtime.GOMAXPROCS(maxProcs)
	budget := time.Duration(*seconds * float64(time.Second))
	// The simulator receives only inputs generated from the seed: here the
	// simulator seed, offset so that seed 0 does not hit the experiment
	// drivers' "0 means the default seed" rule.
	simSeed := *seed + 1

	rep := newReport(*name)
	defs := endToEnd
	if *traced == 1 {
		sp := newSpans()
		w.trace(simSeed, budget, rep, sp)
		if *spansOut != "" {
			if err := sp.write(*spansOut); err != nil {
				fail(err)
			}
		}
		defs = perLayer
	} else {
		w.measure(simSeed, budget, rep)
	}
	if err := rep.write(os.Stdout, defs); err != nil {
		fail(err)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
