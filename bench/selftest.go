package main

import (
	"fmt"
	"io"
	"math"
	"slices"
)

// selftest is the A/A check the driver repeats before it accepts the
// benchmark: two sets of runs of the same binaries, interleaved and
// each run on its own seed, must agree on every gated median within
// that metric's bound, and the spread inside a set (inter-quartile
// distance over the median) must itself stay inside the bound. The
// driver does not hold setup_s to the spread rule, so neither does
// this. Demoted metrics are tabulated with the rest — the table is how
// one decides what to gate — and cannot fail. It prints the table
// bench/README.md carries.
func selftest(env *environment, chosen []workload, o options, out io.Writer) error {
	type key struct {
		workload, metric string
		set              int
	}
	values := map[key][]float64{}
	tabulated := slices.Concat(endToEnd, demoted)
	for i := 0; i < o.runs; i++ {
		for set := 0; set < 2; set++ {
			streams := streamCache{} // dropped after the seed's workloads, to bound memory
			ro := o
			ro.trace = 0
			ro.seed = o.seed + int64(2*i+set)
			for _, w := range chosen {
				fmt.Fprintf(out, "\n== selftest set %c run %d/%d seed %d: %s (loadavg %s)\n",
					'A'+set, i+1, o.runs, ro.seed, w.name, loadavg())
				res, err := runWorkload(env, streams, w, ro, out)
				if err != nil {
					return fmt.Errorf("%s: %w", w.name, err)
				}
				if !res.correct() {
					return fmt.Errorf("%s seed %d: %w", w.name, ro.seed, errIncorrect)
				}
				for _, d := range tabulated {
					k := key{w.name, d.name, set}
					values[k] = append(values[k], res.metrics[d.name])
				}
			}
		}
	}

	fmt.Fprintf(out, "\nA/A self-test, %d runs per set, seeds %d..%d\n", o.runs, o.seed, o.seed+int64(2*o.runs-1))
	fmt.Fprintln(out, "| workload | metric | unit | median A | median B | B vs A | spread A | spread B | bound | verdict |")
	fmt.Fprintln(out, "|---|---|---|---|---|---|---|---|---|---|")
	failures := 0
	for _, w := range chosen {
		for _, d := range tabulated {
			q1a, medA, q3a := quartiles(values[key{w.name, d.name, 0}])
			q1b, medB, q3b := quartiles(values[key{w.name, d.name, 1}])
			// Positive means B is worse than A.
			worse := (medB - medA) / medA
			if d.better == "higher" {
				worse = -worse
			}
			spreadA, spreadB := (q3a-q1a)/medA, (q3b-q1b)/medB
			verdict := "ok"
			switch {
			case d.bound == 0:
				verdict = "not gated"
			case math.Abs(worse) > d.bound:
				verdict = "FAIL: medians apart"
				failures++
			case d.name != "setup_s" && max(spreadA, spreadB) > d.bound:
				verdict = "FAIL: spread over bound"
				failures++
			case max(spreadA, spreadB) > d.bound/3:
				verdict = "ok (spread over bound/3)"
			}
			fmt.Fprintf(out, "| %s | %s | %s | %.4g | %.4g | %+.1f%% | %.1f%% | %.1f%% | %.0f%% | %s |\n",
				w.name, d.name, d.unit, medA, medB, 100*worse, 100*spreadA, 100*spreadB, 100*d.bound, verdict)
		}
	}
	if failures > 0 {
		return fmt.Errorf("selftest: %d metric × workload pairs disagree with themselves", failures)
	}
	return nil
}
