package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"provex/internal/gen"
)

// The benchmark builds ./cmd/provserve and reads BENCHMARK.json, so
// its tests run from the repository root like the benchmark does.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {19, 50}, {150, 90}, {225, 95}, {600, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = p%g, want p%g", tc.n, got, tc.want)
		}
		if p := highestPercentile(tc.n); p > 50 && samplesBeyond(tc.n, p) < minBeyond {
			t.Errorf("n=%d: p%g leaves only %d samples beyond", tc.n, p, samplesBeyond(tc.n, p))
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {95, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles(3,1,4,1,5) = %g %g %g, want 1 3 4.5", q1, q2, q3)
	}
}

func TestPacerSchedule(t *testing.T) {
	p := pacer{rate: 1000, tick: 50 * time.Millisecond, total: 120}
	for _, tc := range []struct {
		at   time.Duration
		want int
	}{
		{-time.Millisecond, 0}, {0, 50}, {49 * time.Millisecond, 50}, {50 * time.Millisecond, 100},
		{100 * time.Millisecond, 120}, {time.Hour, 120},
	} {
		if got := p.due(tc.at); got != tc.want {
			t.Errorf("due(%s) = %d, want %d", tc.at, got, tc.want)
		}
	}
	if got := p.nextTick(49 * time.Millisecond); got != 50*time.Millisecond {
		t.Errorf("nextTick(49ms) = %s, want 50ms", got)
	}
	if got := p.nextTick(50 * time.Millisecond); got != 100*time.Millisecond {
		t.Errorf("nextTick(50ms) = %s, want 100ms", got)
	}
}

// stallWriter blocks once, as a full pipe would.
type stallWriter struct {
	bytes.Buffer
	stall time.Duration
}

func (w *stallWriter) Write(p []byte) (int, error) {
	time.Sleep(w.stall)
	w.stall = 0
	return w.Buffer.Write(p)
}

func TestPacerReportsLateness(t *testing.T) {
	st := testStream(t, "steady", 1, 100)
	p := pacer{rate: 1000, tick: 10 * time.Millisecond, total: 100}

	var onTime bytes.Buffer
	start := time.Now()
	backlog, err := p.feed(&onTime, st, 0)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < 90*time.Millisecond {
		t.Errorf("feed of 100 messages at 1000/s took %s, want at least 90ms", took)
	}
	if !bytes.Equal(onTime.Bytes(), st.data) {
		t.Error("paced feed did not deliver the stream bytes in order")
	}
	// A loaded test host may run a tick or two late; a stalled pipe
	// must show as far more.
	if backlog > 30 {
		t.Errorf("unobstructed feed reported a backlog of %d messages", backlog)
	}

	stalled := &stallWriter{stall: 55 * time.Millisecond}
	backlog, err = p.feed(stalled, st, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 55 ms behind a 10-messages-per-10-ms schedule: five ticks were
	// released meanwhile, of which one is the slice due anyway.
	if backlog < 40 {
		t.Errorf("feed stalled for 55ms reported a backlog of %d messages, want at least 40", backlog)
	}
	if !bytes.Equal(stalled.Bytes(), st.data) {
		t.Error("stalled feed did not deliver the stream bytes in order")
	}
}

func TestParseProc(t *testing.T) {
	// Field 2 may hold spaces and parentheses; utime and stime are
	// fields 14 and 15.
	stat := []byte("4242 (prov serve) x) S 1 4242 4242 0 -1 4194560 9000 0 3 0 1234 567 0 0 20 0 9 0 100 2000000 5000 18446744073709551615\n")
	cpu, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(1234+567) / clockTicksPerSecond; cpu != want {
		t.Errorf("parseStatCPU = %g s, want %g", cpu, want)
	}
	if _, err := parseStatCPU([]byte("4242 (x) S 1 2")); err == nil {
		t.Error("parseStatCPU accepted a truncated line")
	}
	if _, err := parseStatCPU([]byte("garbage")); err == nil {
		t.Error("parseStatCPU accepted a line with no command field")
	}

	status := []byte("Name:\tprovserve\nVmPeak:\t 1000000 kB\nVmHWM:\t  426208 kB\nVmRSS:\t  400000 kB\nThreads:\t9\n")
	hwm, err := parseStatusMB(status, "VmHWM")
	if err != nil {
		t.Fatal(err)
	}
	if want := 426208.0 / 1024; hwm != want {
		t.Errorf("VmHWM = %g MB, want %g", hwm, want)
	}
	if _, err := parseStatusMB(status, "VmSwap"); err == nil {
		t.Error("parseStatusMB found a line that is not there")
	}
	if _, err := parseStatusMB([]byte("VmHWM:\t12 MB\n"), "VmHWM"); err == nil {
		t.Error("parseStatusMB accepted a unit other than kB")
	}

	// The live files of this very process parse too.
	if _, err := cpuSeconds(os.Getpid()); err != nil {
		t.Errorf("cpuSeconds(self): %v", err)
	}
	if mb, err := memMB(os.Getpid(), "VmHWM"); err != nil || mb <= 0 {
		t.Errorf("memMB(self, VmHWM) = %g, %v", mb, err)
	}
}

func TestSamplesRollUp(t *testing.T) {
	m := samples{
		`provex_wal_fsync_seconds_sum{shard="0"}`:             1.5,
		`provex_wal_fsync_seconds_sum{shard="1"}`:             2.5,
		`provex_wal_fsync_seconds_sum_other`:                  100,
		`provex_http_request_duration_seconds_sum{path="/p"}`: 7,
		`provex_pipeline_queue_depth`:                         3,
	}
	if got := m.sum("provex_wal_fsync_seconds_sum"); got != 4 {
		t.Errorf("sum over shards = %g, want 4", got)
	}
	if got := m.max("provex_wal_fsync_seconds_sum"); got != 2.5 {
		t.Errorf("max over shards = %g, want 2.5", got)
	}
	if got := m.sum("provex_wal_fsync_seconds_sum", `shard="1"`); got != 2.5 {
		t.Errorf("sum of shard 1 = %g, want 2.5", got)
	}
	if got := m.sum("provex_pipeline_queue_depth"); got != 3 {
		t.Errorf("unlabelled series = %g, want 3", got)
	}
	if got := m.sum("provex_absent"); got != 0 {
		t.Errorf("absent family = %g, want 0", got)
	}
}

func testStream(t *testing.T, recipeName string, seed int64, n int) *synthStream {
	t.Helper()
	rec, err := loadRecipe(recipeName)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := rec.genConfig(seed)
	if err != nil {
		t.Fatal(err)
	}
	st, err := synth(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestRecipesAreData(t *testing.T) {
	steady, err := loadRecipe("steady")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := steady.genConfig(gen.DefaultConfig().Seed)
	if err != nil {
		t.Fatal(err)
	}
	if want := gen.DefaultConfig(); !reflect.DeepEqual(cfg, want) {
		t.Errorf("steady recipe is no longer gen.DefaultConfig:\n got %+v\nwant %+v", cfg, want)
	}
	storm, err := loadRecipe("storm")
	if err != nil {
		t.Fatal(err)
	}
	stormCfg, err := storm.genConfig(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(stormCfg.Scripts) != 6 || stormCfg.Scripts[1].Start-stormCfg.Scripts[0].Start != 5*time.Hour {
		t.Errorf("storm recipe: want six scripted events 5h apart, got %+v", stormCfg.Scripts)
	}
	for _, w := range workloads {
		rec, err := loadRecipe(w.recipe)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := rec.Expect[w.name]; !ok {
			t.Errorf("recipe %s pins no shape for workload %s", rec.Name, w.name)
		}
		if pl := rec.Phases.scaled(rec.Phases.NominalSeconds); !pl.nominal || pl.total() != 125_000 {
			t.Errorf("recipe %s: nominal plan is %+v, want 125000 messages", rec.Name, pl)
		}
	}
	if _, err := loadRecipe("absent"); err == nil {
		t.Error("loadRecipe found a recipe that is not there")
	}
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, name := range []string{"steady", "storm"} {
		a, b := testStream(t, name, 1, 2000), testStream(t, name, 1, 2000)
		if sha256.Sum256(a.data) != sha256.Sum256(b.data) {
			t.Errorf("%s: seed 1 gave two different streams", name)
		}
		if c := testStream(t, name, 2, 2000); sha256.Sum256(c.data) == sha256.Sum256(a.data) {
			t.Errorf("%s: seed 2 gave the stream of seed 1", name)
		}
		if got := bytes.Count(a.lines(10, 25), []byte("\n")); got != 15 {
			t.Errorf("%s: lines(10, 25) holds %d lines", name, got)
		}
		if !bytes.Equal(a.lines(0, len(a.msgs)), a.data) {
			t.Errorf("%s: lines(0, n) is not the whole stream", name)
		}
	}
}

func TestQuerySequence(t *testing.T) {
	st := testStream(t, "steady", 1, 3000)
	a := buildQueries(7, st.msgs, 1500)
	if b := buildQueries(7, st.msgs, 1500); !reflect.DeepEqual(a, b) {
		t.Error("same seed gave two different query sequences")
	}
	if c := buildQueries(8, st.msgs, 1500); reflect.DeepEqual(a, c) {
		t.Error("another seed gave the same query sequence")
	}
	var count [numKinds]int
	for _, q := range a {
		count[q.kind]++
		if (q.kind == kindProv || q.kind == kindSearch) && q.term == "" {
			t.Fatalf("%s query without a term", q.kind)
		}
	}
	for k, share := range queryMix {
		if got := 100 * float64(count[k]) / float64(len(a)); math.Abs(got-float64(share)) > 4 {
			t.Errorf("%s is %.1f%% of the sequence, want about %d%%", queryKind(k), got, share)
		}
	}
	ids := []uint64{11, 22, 33}
	for _, q := range a {
		if q.kind == kindBundle && !strings.HasPrefix(q.path(ids), "/bundle?id=") {
			t.Errorf("bundle query path %q", q.path(ids))
		}
	}
	if got := (querySpec{kind: kindProv, term: "a b#c"}).path(nil); got != "/prov?k=10&q=a+b%23c" {
		t.Errorf("prov path = %q", got)
	}
}

func TestTracerAccounting(t *testing.T) {
	var none *tracer
	none.beginPhase("x")
	none.begin(lyDecode)
	none.end()
	none.endPhase() // a nil tracer records nothing and does not panic

	tr := newTracer()
	tr.beginPhase(phDrain)
	for n := 1; n <= 2*spanSampleEvery; n++ {
		tr.message(n)
		tr.begin(lyDecode)
		time.Sleep(10 * time.Microsecond)
		tr.end()
	}
	tr.noMessage()
	tr.begin(lyCheckpoint)
	tr.end()
	tr.endPhase()

	p := tr.phase(phDrain)
	if p.layers[lyDecode].calls != 2*spanSampleEvery || p.layers[lyCheckpoint].calls != 1 {
		t.Errorf("calls: decode %d, checkpoint %d", p.layers[lyDecode].calls, p.layers[lyCheckpoint].calls)
	}
	sum := p.unaccounted()
	for ly := lyPhase + 1; ly < numLayers; ly++ {
		sum += p.layers[ly].self()
	}
	if sum != p.wall {
		t.Errorf("rows sum to %s, phase wall is %s", sum, p.wall)
	}
	// Phase, two sampled messages, one checkpoint.
	if len(tr.spans) != 4 {
		t.Fatalf("%d spans kept, want 4", len(tr.spans))
	}
	for _, s := range tr.spans[1:] {
		if s.Parent != tr.spans[0].ID || s.EndNs < s.StartNs {
			t.Errorf("span %+v: want parent %d and end after start", s, tr.spans[0].ID)
		}
	}
	if tr.spans[1].Msg != spanSampleEvery || tr.spans[3].Msg != 0 {
		t.Errorf("message ordinals: %d and %d", tr.spans[1].Msg, tr.spans[3].Msg)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	steady, err := loadRecipe("steady")
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != steady.Phases.NominalSeconds {
		t.Errorf("run_seconds %d, recipes are calibrated for %d", bf.RunSeconds, steady.Phases.NominalSeconds)
	}
	if len(bf.Workloads) < 2 || len(bf.Workloads) > len(workloads) {
		t.Fatalf("%d workloads listed", len(bf.Workloads))
	}
	for i, bw := range bf.Workloads {
		if w := workloads[i]; bw.Name != w.name || bw.Why != w.why {
			t.Errorf("workload %d is %q (%q), the code has %q (%q)", i, bw.Name, bw.Why, w.name, w.why)
		}
	}
	check := func(kind string, got []benchmarkMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics listed, the code reports %d", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: %+v, the code has %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) {
				t.Errorf("%s %s: bound present is %v, want %v", kind, g.Name, g.Bound != nil, bounded)
			} else if bounded && *g.Bound != w.bound {
				t.Errorf("%s %s: bound %g, the code has %g", kind, g.Name, *g.Bound, w.bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
}

// TestMiniature runs every workload end to end at a thirtieth of the
// nominal length — real child processes, the shim, the kill and the
// recovery check — and one traced replay per shell.
func TestMiniature(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs server processes")
	}
	env, err := prepare()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		o := options{seed: 3, seconds: 1, trace: 0}
		// Trace one workload per in-process shell.
		if w.name == "steady-sharded" || w.name == "bounded-serial" {
			o.trace = 1
		}
		res, err := runWorkload(env, streamCache{}, w, o, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.correct() || res.failed != 0 {
			t.Errorf("%s: failed %d, problems %v", w.name, res.failed, res.problems)
		}
		defs := endToEnd
		if o.trace == 1 {
			defs = slices.Concat(defs, perLayer)
		}
		if _, err := res.driverLine(defs); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		for _, d := range slices.Concat(endToEnd, demoted) {
			if res.metrics[d.name] <= 0 {
				t.Errorf("%s: %s = %g, want a positive value", w.name, d.name, res.metrics[d.name])
			}
		}
	}
}
