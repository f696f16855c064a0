package core

import (
	"bytes"
	"flag"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"

	"provex/internal/gen"
	"provex/internal/score"
	"provex/internal/stream"
	"provex/internal/sumindex"
)

// TestMemEstimateTracksHeap: Stats.MemTotal — Figure 11(a)'s metric,
// summed from the cost constants of metrics/memest.go as structures
// grow — is an estimate of real bytes, so it must stay within 30 % of
// the live heap a bare engine's ingest actually leaves reachable. (It
// was 45 % of it while the model priced a message at 96 B, a node at
// 32 B and every bundle's eight maps at nothing.) The stream is decoded
// from JSONL as a server reads it, so the heap holds what the engine
// keeps and not the generator's re-share reservoir.
func TestMemEstimateTracksHeap(t *testing.T) {
	const n = 20000
	var buf bytes.Buffer
	if _, err := stream.WriteJSONL(&buf, stream.Limit(stream.FuncSource(gen.New(gen.DefaultConfig()).Next), n)); err != nil {
		t.Fatal(err)
	}
	rd := stream.NewJSONLReader(&buf)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e := New(FullIndexConfig(), nil, nil)
	for {
		m, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		e.Insert(m)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	st := e.Snapshot()
	runtime.KeepAlive(rd)
	heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	ratio := float64(st.MemTotal()) / float64(heap)
	t.Logf("estimate %d B (bundles %d + index %d), live heap %d B: ratio %.2f",
		st.MemTotal(), st.MemBundles, st.MemIndex, heap, ratio)
	if ratio < 0.7 || ratio > 1.3 {
		t.Errorf("MemTotal is %.0f %% of the live heap (%d of %d B), want within 30 %%",
			100*ratio, st.MemTotal(), heap)
	}
}

// TestCheckpointWorkPerMessage is a deterministic work counter of the
// checkpoint layer: the bytes writeCheckpoint writes and the
// allocations restoreCheckpoint makes per message, on seed-1 20 000
// messages in an unbounded engine. It runs in a process of its own, so
// the term dictionary holds the stream's vocabulary only. The pool
// writes its bundles in ID order, so both counts are the same on every
// run. The bounds sit just above the measured 73.0 B and 8.09
// allocations. Before a stored node dropped its edge score (bundle codec
// v3, checkpoint v5) the bytes read 79.3; before it dropped its keyword
// strings (bundle codec v2, checkpoint v4) they read 119.0 B and 16.13
// allocations (at 125 000 messages: 120.0 → 80.2 B and 15.4 → 9.2);
// decode allocated one string per keyword. Before a summary-index term on one bundle
// held its posting in its column entry (the restore rebuilds the index)
// the allocations read 9.93; before restore decoded an open bundle of
// one message straight into its record, with no Bundle and no node
// array, 8.59. Under -race, whose instrumentation allocates, the
// allocations are logged but not held to their bound.
func TestCheckpointWorkPerMessage(t *testing.T) {
	const (
		n           = 20000
		byteBudget  = 73.5
		allocBudget = 8.15
	)
	if !inOwnProcess(t) {
		return
	}
	g := gen.New(gen.DefaultConfig())
	e := New(FullIndexConfig(), nil, nil)
	for i := 0; i < n; i++ {
		e.Insert(g.Next())
	}
	var ckpt bytes.Buffer
	if err := e.writeCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	restored, err := restoreCheckpoint(FullIndexConfig(), nil, nil, bytes.NewReader(ckpt.Bytes()))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Snapshot().Messages; got != n {
		t.Fatalf("restored %d messages, want %d", got, n)
	}
	perMsg := float64(ckpt.Len()) / n
	allocs := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("checkpoint %.1f bytes and restore %.2f allocations per message (budgets %.1f and %.2f)", perMsg, allocs, byteBudget, allocBudget)
	if perMsg > byteBudget {
		t.Errorf("checkpoint writes %.1f bytes per message, budget %.1f", perMsg, byteBudget)
	}
	if allocs > allocBudget && !raceBuild {
		t.Errorf("restore makes %.2f allocations per message, budget %.2f", allocs, allocBudget)
	}
}

// TestSummaryIndexInserts is the summary index's work counter
// (provex_sumindex_inserts_total): on seed-1 20 000 messages in an
// unbounded engine, how many postings Observe added and where each went
// — inline (a term's first bundle, held in its column entry), promote
// (its second, which makes a list), tail and mid (into a list). The
// counts are a function of the stream alone, so they are pinned exactly;
// a change that moves one explains it. Mid counts an older bundle
// gaining a term a newer bundle already has.
func TestSummaryIndexInserts(t *testing.T) {
	const n = 20000
	want := [sumindex.NumInsertKinds]int64{
		sumindex.Inline:  20734,
		sumindex.Promote: 6643,
		sumindex.Tail:    24381,
		sumindex.Mid:     21046,
	}
	if !inOwnProcess(t) {
		return
	}
	g := gen.New(gen.DefaultConfig())
	e := New(FullIndexConfig(), nil, nil)
	for i := 0; i < n; i++ {
		e.Insert(g.Next())
	}
	var got [sumindex.NumInsertKinds]int64
	for k := range sumindex.NumInsertKinds {
		got[k] = e.SummaryIndex().Inserts(k).Value()
	}
	t.Logf("summary-index inserts: inline %d, promote %d, tail %d, mid %d (%.1f %% of the inserts into a list)",
		got[sumindex.Inline], got[sumindex.Promote], got[sumindex.Tail], got[sumindex.Mid],
		100*float64(got[sumindex.Mid])/float64(got[sumindex.Tail]+got[sumindex.Mid]))
	if got != want {
		t.Errorf("summary-index inserts %v, want %v", got, want)
	}
}

// TestRecordTextBytes is the work cell of the records' text: on seed-1
// 20 000 messages in an unbounded engine, the text bytes the records
// hold (provex_record_text_bytes{form="stored"}) against the bytes the
// messages carry (form="raw"). It runs in a process of its own, so the
// symbol table is trained from the stream's own first ~64 KB of text
// and both counts are a function of the stream alone, pinned exactly;
// a change to the codec, its training or the sample moves the stored
// count. The first 1 450 or so texts, built before the table, are
// stored raw.
func TestRecordTextBytes(t *testing.T) {
	const (
		n          = 20000
		wantRaw    = 936692
		wantStored = 496951
	)
	if !inOwnProcess(t) {
		return
	}
	g := gen.New(gen.DefaultConfig())
	e := New(FullIndexConfig(), nil, nil)
	for i := 0; i < n; i++ {
		e.Insert(g.Next())
	}
	raw, stored := score.TextBytes()
	t.Logf("record text: %.2f stored bytes per message of %.2f raw (%.3f)",
		float64(stored)/n, float64(raw)/n, float64(stored)/float64(raw))
	if raw != wantRaw || stored != wantStored {
		t.Errorf("record text bytes: raw %d, stored %d; want %d, %d", raw, stored, wantRaw, wantStored)
	}
}

// raceBuild is set in a -race build (race_test.go).
var raceBuild bool

// inOwnProcess reports whether the calling test is running alone in a
// child process of the test binary, and should measure. When it is not,
// it runs the test in such a child, relays the child's log lines, fails
// if the child failed, and reports false.
func inOwnProcess(t *testing.T) bool {
	t.Helper()
	run := "^" + t.Name() + "$"
	if flag.Lookup("test.run").Value.String() == run {
		return true
	}
	out, err := exec.Command(os.Args[0], "-test.run="+run, "-test.count=1", "-test.v").CombinedOutput()
	for _, line := range strings.Split(string(out), "\n") {
		if _, msg, ok := strings.Cut(line, "memory_test.go:"); ok {
			_, msg, _ = strings.Cut(msg, ": ")
			t.Log(msg)
		}
	}
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	return false
}
