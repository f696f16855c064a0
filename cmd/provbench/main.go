// Command provbench regenerates the paper's evaluation figures
// (Section VI) on the synthetic stream. Each -fig value maps to one
// figure of the paper; 'all' runs the whole suite plus the ablation
// studies. The command in EXPERIMENTS.md's header writes
// bench_results_default.txt, which its figure sections quote.
//
// Usage:
//
//	provbench -fig all                  # everything at the reduced default scale
//	provbench -fig 8                    # just Figure 8 (accuracy/return)
//	provbench -scale paper -fig 7       # paper-sized run (700k messages)
//	provbench -fig all -out results.txt
//	provbench -figure fig13 -max 1000000 -json   # long-stream stage-time sweep
//	provbench -figure fig13 -max 40000 -check-linear 1.5   # ci perf smoke
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"strings"
	"time"

	"provex/internal/cli"
	"provex/internal/experiments"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "figures to regenerate (comma separated): 6,7,8,9,10,11,12,13, ablations, all")
		scaleArg = flag.String("scale", "default", "run scale: default | paper")
		messages = flag.Int("n", 0, "override the main stream length")
		sweepN   = flag.Int("sweep-n", 0, "override the Fig 9 sweep stream length (pool limits scale proportionally)")
		out      = flag.String("out", "-", "output path, '-' for stdout")
		jsonOut  = flag.Bool("json", false, "emit a machine-readable JSON report instead of text tables")
		figure   = flag.String("figure", "", "dedicated sweep mode, bypasses -fig: 'fig13' runs the long-stream stage-time sweep")
		maxN     = flag.Int("max", 1_000_000, "stream length for -figure sweeps")
		linear   = flag.Float64("check-linear", 0, "with -figure fig13: exit nonzero unless cumulative match/placement time at -max stays within this factor of the linear extrapolation from -max/2")
		shardsN  = flag.Int("shards", 0, "with -figure fig13: the sweep's shard count (0 or 1: one shard, the serial apply loop)")
		logLevel = cli.LogLevelFlag()
	)
	flag.Parse()
	if err := cli.SetupLogging(*logLevel); err != nil {
		cli.Fatal("flags", err)
	}

	var s experiments.Scale
	switch *scaleArg {
	case "default":
		s = experiments.DefaultScale()
	case "paper":
		s = experiments.PaperScale()
	default:
		cli.Fatal("unknown scale (want default or paper)", nil, "scale", *scaleArg)
	}
	if *messages > 0 {
		s.Messages = *messages
	}
	if *sweepN > 0 && *sweepN != s.SweepMessages {
		// Keep each pool limit's ratio to the sweep stream length.
		factor := float64(*sweepN) / float64(s.SweepMessages)
		for i, lim := range s.SweepLimits {
			scaled := int(float64(lim) * factor)
			if scaled < 20 {
				scaled = 20
			}
			s.SweepLimits[i] = scaled
		}
		s.SweepMessages = *sweepN
	}

	w := io.Writer(os.Stdout)
	if *out != "-" {
		//provlint:ignore fsxdiscipline bench report for humans and CI greps; these bytes never feed the store
		f, err := os.Create(*out)
		if err != nil {
			cli.Fatal("create output", err, "path", *out)
		}
		defer f.Close()
		w = f
	}

	if *figure != "" {
		if *figure != "fig13" {
			cli.Fatal("unknown -figure (want fig13)", nil, "figure", *figure)
		}
		if err := runSweep(w, s, *maxN, *linear, *jsonOut, *shardsN); err != nil {
			cli.Fatal("fig13 sweep", err)
		}
		return
	}

	valid := map[string]bool{
		"6": true, "7": true, "8": true, "9": true, "10": true,
		"11": true, "12": true, "13": true, "ablations": true, "all": true,
	}
	var figs []string
	for _, f := range strings.Split(strings.ToLower(*fig), ",") {
		f = strings.TrimSpace(f)
		if !valid[f] {
			cli.Fatal("unknown figure (want 6..13, ablations or all)", nil, "fig", f)
		}
		figs = append(figs, f)
	}
	if err := run(w, s, figs, *jsonOut); err != nil {
		cli.Fatal("write report", err)
	}
}

// reportSchema versions the -json layout; bump it when a field changes
// meaning so trajectory tooling can refuse mixed comparisons.
const reportSchema = "provbench/1"

// jsonReport is the machine-readable bench trajectory entry: enough
// environment to interpret the numbers, plus every requested figure's
// tables verbatim. BENCH_PR4.json (and successors) are instances.
type jsonReport struct {
	Schema     string               `json:"schema"`
	GoVersion  string               `json:"go_version"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	Scale      experiments.Scale    `json:"scale"`
	Figures    []experiments.Figure `json:"figures"`
	ElapsedSec float64              `json:"elapsed_sec"`
}

// run executes the requested figure(s) through experiments.Run. With
// jsonOut the figures are collected into one jsonReport instead of
// rendered as text.
func run(w io.Writer, s experiments.Scale, figs []string, jsonOut bool) error {
	start := time.Now()
	if !jsonOut {
		fmt.Fprintf(w, "provbench: scale messages=%d sweep=%d pool=%d bundle_limit=%d seed=%d\n\n",
			s.Messages, s.SweepMessages, s.PoolLimit, s.BundleLimit, s.Seed)
	}
	slog.Info("running figures", "figs", strings.Join(figs, ","))
	figures := experiments.Run(s, figs...)
	elapsed := time.Since(start)
	if jsonOut {
		if err := writeReport(w, s, figures, elapsed); err != nil {
			return err
		}
	} else {
		for _, f := range figures {
			for _, t := range f.Tables {
				fmt.Fprintln(w, t.Render())
			}
			for _, trail := range f.Trails {
				fmt.Fprintln(w, headLines(trail, 20))
			}
		}
	}
	slog.Info("done", "seconds", fmt.Sprintf("%.1f", elapsed.Seconds()))
	return nil
}

// runSweep executes the -figure fig13 long-stream sweep: one Partial
// Index node of the given shard count, cumulative per-stage time at 100
// checkpoints, rendered
// as a table (or a one-figure jsonReport; BENCH_PR6.json is an
// instance). With checkLinear > 0 it is also the ci.sh perf-smoke
// guardrail: a superlinear match or placement curve is a hard failure.
func runSweep(w io.Writer, s experiments.Scale, max int, checkLinear float64, jsonOut bool, shards int) error {
	start := time.Now()
	slog.Info("fig13 sweep", "messages", max, "pool", s.PoolLimit, "shards", shards)
	res := experiments.Fig13Sweep(s, max, shards)
	elapsed := time.Since(start)
	if jsonOut {
		if err := writeReport(w, s, []experiments.Figure{{Name: "fig13sweep", Tables: []*experiments.Table{res.Table()}}}, elapsed); err != nil {
			return err
		}
	} else {
		fmt.Fprintln(w, res.Table().Render())
	}
	if checkLinear > 0 {
		if err := res.CheckLinear(checkLinear); err != nil {
			return err
		}
		slog.Info("linearity check passed", "factor", checkLinear)
	}
	slog.Info("done", "seconds", fmt.Sprintf("%.1f", elapsed.Seconds()))
	return nil
}

// writeReport encodes figures as one jsonReport.
func writeReport(w io.Writer, s experiments.Scale, figures []experiments.Figure, elapsed time.Duration) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonReport{
		Schema:     reportSchema,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      s,
		Figures:    figures,
		ElapsedSec: elapsed.Seconds(),
	})
}

// headLines truncates s to its first n lines, annotating the cut.
func headLines(s string, n int) string {
	lines := strings.Split(s, "\n")
	if len(lines) <= n {
		return s
	}
	return strings.Join(lines[:n], "\n") + fmt.Sprintf("\n  ... (%d more lines)\n", len(lines)-n)
}
