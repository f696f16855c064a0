// Command bench is the repository's end-to-end benchmark. It builds
// provserve, feeds it a synthesised stream through four phases — setup,
// drain, serve, restart — as real child processes, checks what they
// answer, and prints every metric by name with its unit. See README.md
// next to this file for the workloads, the metric tables and why the
// load is shaped as it is.
//
//	go run ./bench                                     # every workload, end-to-end metrics
//	go run ./bench -workload steady-serial             # one workload; last line is the driver's JSON
//	go run ./bench -workload steady-serial -trace 1    # + in-process traced replay, per-layer metrics
//	go run ./bench -selftest                           # A/A: two interleaved sets on the same binaries
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	selftest bool
	runs     int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run; empty runs all of them")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the stream and the query sequence")
	flag.IntVar(&o.seconds, "seconds", 40, "run length the phases are sized for; only 40 is calibrated")
	flag.IntVar(&o.trace, "trace", 0, "1 adds the traced in-process replay and reports the per-layer metrics")
	flag.BoolVar(&o.selftest, "selftest", false, "A/A check: two interleaved sets of -runs runs per workload")
	flag.IntVar(&o.runs, "runs", 5, "runs per set in -selftest")
	flag.Parse()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect is what an all-workloads run ends with when any
// correctness check failed.
var errIncorrect = errors.New("a correctness check failed")

func run(o options, out io.Writer) error {
	if o.seconds < 1 || o.trace < 0 || o.trace > 1 || o.runs < 2 {
		return fmt.Errorf("need -seconds >= 1, -trace 0 or 1, -runs >= 2")
	}
	chosen := workloads
	if o.workload != "" {
		w, err := findWorkload(o.workload)
		if err != nil {
			return err
		}
		chosen = []workload{w}
	}
	fmt.Fprintln(out, environmentLine())
	env, err := prepare()
	if err != nil {
		return err
	}
	if o.selftest {
		return selftest(env, chosen, o, out)
	}

	streams := streamCache{}
	allCorrect := true
	var last *result
	for _, w := range chosen {
		res, err := runWorkload(env, streams, w, o, out)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		allCorrect = allCorrect && res.correct()
		last = res
	}
	if o.workload == "" {
		if !allCorrect {
			return errIncorrect
		}
		return nil
	}
	// Driver mode: the verdict travels in the JSON line.
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	line, err := last.driverLine(defs)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, line)
	return nil
}

// streamCache holds the streams synthesised by this invocation, so
// workloads on the same recipe share one. Nothing survives the process.
type streamCache map[streamKey]*cachedStream

type streamKey struct {
	recipe string
	seed   int64
	msgs   int
}

type cachedStream struct {
	stream *synthStream
	synthS float64
}

func (c streamCache) get(rec *recipe, seed int64, n int) (*cachedStream, error) {
	key := streamKey{rec.Name, seed, n}
	if cs, ok := c[key]; ok {
		return cs, nil
	}
	cfg, err := rec.genConfig(seed)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	st, err := synth(cfg, n)
	if err != nil {
		return nil, err
	}
	cs := &cachedStream{stream: st, synthS: time.Since(start).Seconds()}
	c[key] = cs
	return cs, nil
}

// querySeedSalt separates the query sequence's RNG from the stream's.
const querySeedSalt = 0x5eed

// runWorkload makes the inputs from the seed, runs the workload against
// real processes, and with -trace 1 replays it in-process.
func runWorkload(env *environment, streams streamCache, w workload, o options, out io.Writer) (*result, error) {
	rec, err := loadRecipe(w.recipe)
	if err != nil {
		return nil, err
	}
	pl := rec.Phases.scaled(o.seconds)
	cs, err := streams.get(rec, o.seed, pl.total())
	if err != nil {
		return nil, err
	}
	queries := buildQueries(o.seed^querySeedSalt, cs.stream.msgs[:pl.setup], pl.queries)

	real, err := runReal(env, w, pl, cs.stream, queries, o.trace == 1)
	if err != nil {
		return nil, err
	}
	res := reduceReal(w, rec, pl, o.seed, cs.synthS, real)
	if o.trace == 0 {
		res.printMetrics(out, "end-to-end, gated", endToEnd)
		res.printMetrics(out, "end-to-end, not gated", demoted)
		res.printVerdict(out)
		return res, nil
	}

	tr := newTracer()
	traced, err := replayIn(env, w, pl, cs.stream, queries, tr, false)
	if err != nil {
		return nil, err
	}
	untraced, err := replayIn(env, w, pl, cs.stream, queries, nil, true)
	if err != nil {
		return nil, err
	}
	res.addReplay(w, tr, traced, untraced)
	path, err := tr.write(outDir, w.name, o.seed)
	if err != nil {
		return nil, err
	}
	printPhaseTables(out, w, tr, traced)
	res.printMetrics(out, "per-layer", layers)
	res.printMetrics(out, "end-to-end of the traced run, not gated", demoted)
	res.printMetrics(out, "end-to-end of the traced run (not the gated figures)", endToEnd)
	res.printVerdict(out)
	fmt.Fprintf(out, "  %d spans written to %s\n", len(tr.spans), path)
	return res, nil
}

// replayIn runs replay on a state directory of its own.
func replayIn(env *environment, w workload, pl plan, st *synthStream, queries []querySpec, tr *tracer, setupOnly bool) (*replayResult, error) {
	dir, err := env.runDir(w.name + "-replay")
	if err != nil {
		return nil, err
	}
	defer removeAll(dir)
	return replay(w, pl, st, queries, dir, tr, setupOnly)
}
