// Command markovtool evaluates the paper's §5 Markov chain model and
// prints analysis tables: transition probabilities, expected hitting
// times f(i)/g(i), the fraction of time unsynchronized, and parameter
// sweeps over Tr or N.
//
// Usage:
//
//	markovtool [flags]
//
// Examples:
//
//	# the paper's Figure 12 sweep
//	markovtool -sweep tr -lo 0.55 -hi 4.5 -step 0.05
//
//	# the Figure 15 sweep over router count
//	markovtool -sweep n -tr 0.3 -lo 3 -hi 30
//
//	# a single-point table
//	markovtool -tr 0.2
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"routesync/internal/markov"
)

func main() {
	var (
		n     = flag.Int("n", 20, "number of routers")
		tp    = flag.Float64("tp", 121, "mean timer period Tp (seconds)")
		tr    = flag.Float64("tr", 0.1, "random component Tr (seconds)")
		tc    = flag.Float64("tc", 0.11, "per-message processing cost Tc (seconds)")
		f2    = flag.Float64("f2", 0, "f(2) in rounds (0 = estimate from p(1,2))")
		sweep = flag.String("sweep", "", "sweep variable: '', 'threshold', 'tr' (multiples of Tc) or 'n'")
		lo    = flag.Float64("lo", 0.55, "sweep lower bound")
		hi    = flag.Float64("hi", 4.5, "sweep upper bound")
		step  = flag.Float64("step", 0.05, "sweep step, > 0 (tr sweep only)")
	)
	flag.Parse()

	p := markov.Params{N: *n, Tp: *tp, Tr: *tr, Tc: *tc, F2: *f2}
	var run func(io.Writer) error
	switch *sweep {
	case "":
		run = func(w io.Writer) error { return table(w, p) }
	case "threshold":
		run = func(w io.Writer) error { sweepThreshold(w, p, *lo, *hi); return nil }
	case "tr":
		run = func(w io.Writer) error { return sweepTr(w, p, *lo, *hi, *step) }
	case "n":
		run = func(w io.Writer) error { return sweepN(w, p, *lo, *hi) }
	default:
		fmt.Fprintf(os.Stderr, "markovtool: unknown sweep %q (allowed: '', threshold, tr, n)\n", *sweep)
		os.Exit(1)
	}
	// A zero or negative step never advances the Tr sweep.
	if !finite(*lo) || !finite(*hi) || !finite(*step) || *step <= 0 {
		fmt.Fprintf(os.Stderr, "markovtool: need finite -lo, -hi and -step with -step > 0 (got %g, %g, %g)\n", *lo, *hi, *step)
		os.Exit(1)
	}

	// Buffer the report so a failure part-way through prints nothing.
	var b strings.Builder
	if err := run(&b); err != nil {
		fmt.Fprintln(os.Stderr, "markovtool:", err)
		os.Exit(1)
	}
	fmt.Print(b.String())
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// table prints the single-point analysis: per-state transition
// probabilities and hitting times, then the summary quantities.
func table(w io.Writer, p markov.Params) error {
	ch, err := markov.New(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "N=%d Tp=%g Tr=%g Tc=%g (Tr = %.2f·Tc); p(1,2)=%.4g f(2)=%.4g rounds\n\n",
		p.N, p.Tp, p.Tr, p.Tc, p.Tr/p.Tc, ch.ResolvedP12(), ch.ResolvedF2())
	f, g := ch.F(), ch.G()
	fmt.Fprintln(w, " i   p(i,i+1)   p(i,i-1)   f(i) rounds     g(i) rounds")
	for i := 1; i <= p.N; i++ {
		fmt.Fprintf(w, "%2d   %.2e  %.2e  %-14s  %-14s\n",
			i, ch.PUp(i), ch.PDown(i), rounds(f[i]), rounds(g[i]))
	}
	fmt.Fprintf(w, "\nexpected unsync→sync: %s\n", secs(ch.FN()*ch.RoundSeconds()))
	fmt.Fprintf(w, "expected sync→unsync: %s\n", secs(ch.G1()*ch.RoundSeconds()))
	fmt.Fprintf(w, "fraction of time unsynchronized: %.4f\n", ch.FractionUnsynchronized())
	if pi := ch.Stationary(); pi != nil {
		best, idx := 0.0, 1
		for i := 1; i <= p.N; i++ {
			if pi[i] > best {
				best, idx = pi[i], i
			}
		}
		fmt.Fprintf(w, "stationary mode: cluster size %d (π=%.3f)\n", idx, best)
	}
	return nil
}

// sweepThreshold prints the critical Tr for each router count in [lo, hi].
func sweepThreshold(w io.Writer, p markov.Params, lo, hi float64) {
	fmt.Fprintln(w, "N     critical Tr (s)   critical Tr / Tc")
	for k := max(int(lo), 2); k <= int(hi); k++ {
		trc, ok := markov.CriticalTr(k, p.Tp, p.Tc, 0)
		if !ok {
			fmt.Fprintf(w, "%-4d  (no threshold in (Tc/2, Tp/2])\n", k)
			continue
		}
		fmt.Fprintf(w, "%-4d  %-16.4f  %.3f\n", k, trc, trc/p.Tc)
	}
}

// sweepTr prints hitting times and the unsynchronized fraction for Tr
// from lo·Tc to hi·Tc in steps of step·Tc.
func sweepTr(w io.Writer, p markov.Params, lo, hi, step float64) error {
	fmt.Fprintln(w, "Tr/Tc     f(N) seconds      g(1) seconds      fraction-unsync")
	for m := lo; m <= hi+1e-9; m += step {
		q := p
		q.Tr = m * p.Tc
		if err := sweepRow(w, fmt.Sprintf("%-8.3f", m), q); err != nil {
			return err
		}
	}
	return nil
}

// sweepN prints hitting times and the unsynchronized fraction for each
// router count in [lo, hi].
func sweepN(w io.Writer, p markov.Params, lo, hi float64) error {
	fmt.Fprintln(w, "N     f(N) seconds      g(1) seconds      fraction-unsync")
	for k := max(int(lo), 2); k <= int(hi); k++ {
		q := p
		q.N = k
		if err := sweepRow(w, fmt.Sprintf("%-4d", k), q); err != nil {
			return err
		}
	}
	return nil
}

// sweepRow prints one sweep line after its label.
func sweepRow(w io.Writer, label string, p markov.Params) error {
	ch, err := markov.New(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s  %-16s  %-16s  %.4f\n", label,
		secs(ch.FN()*ch.RoundSeconds()), secs(ch.G1()*ch.RoundSeconds()), ch.FractionUnsynchronized())
	return nil
}

// rounds formats a hitting time in rounds.
func rounds(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.4g", v)
}

// secs formats a duration in seconds with day/hour/year annotations.
func secs(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "inf"
	case v > 86400*365:
		return fmt.Sprintf("%.3g (%.0fy)", v, v/(86400*365))
	case v > 86400:
		return fmt.Sprintf("%.3g (%.1fd)", v, v/86400)
	case v > 3600:
		return fmt.Sprintf("%.3g (%.1fh)", v, v/3600)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}
