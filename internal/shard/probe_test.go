package shard

// The floored probe against its oracle: the reduce over a round's
// seed + resume probes must pick exactly what the reduce over full,
// unfloored probes (core.Engine.Probe, the protocol before the floor)
// picks, message by message — and it must do so with fewer Eq. 1
// evaluations and the same fetch work.

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"provex/internal/core"
	"provex/internal/metrics"
	"provex/internal/promtext"
	"provex/internal/tweet"
)

// fullProbe is phase 1 without the floor: every shard's unfloored
// probe of every batched message, left where the reduce reads them.
func fullProbe(e *Engine, batch []core.Prepared) {
	for _, sh := range e.shards {
		sh.probes = sh.probes[:0]
		for _, p := range batch {
			sh.probes = append(sh.probes, sh.eng.Probe(p.Doc))
		}
	}
}

// rounds cuts msgs into the prepared batches of size b that Flush would
// resolve.
func rounds(msgs []*tweet.Message, b int) [][]core.Prepared {
	var out [][]core.Prepared
	for start := 0; start < len(msgs); start += b {
		var batch []core.Prepared
		for _, m := range msgs[start:min(start+b, len(msgs))] {
			batch = append(batch, core.Prepare(m))
		}
		out = append(out, batch)
	}
	return out
}

// checkFlooredProbe runs msgs through two engines of n shards and batch
// b, round by round: one probes under the floor, the other with full
// probes. Every message's reduce — winner shard, bundle, score bits —
// and every round's cross count must agree, and so must every shard's
// bundles and the edges at the end.
func checkFlooredProbe(t *testing.T, cfg core.Config, msgs []*tweet.Message, n, b int) {
	t.Helper()
	var fEdges, oEdges edgeCollector
	fl, err := New(cfg, Options{Shards: n, Batch: b}, nil, fEdges.fn)
	if err != nil {
		t.Fatal(err)
	}
	or, err := New(cfg, Options{Shards: n, Batch: b}, nil, oEdges.fn)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for ri, batch := range rounds(msgs, b) {
		fl.probe(batch)
		fullProbe(or, batch)
		for mi := range batch {
			fw, fp := fl.winner(mi)
			ow, op := or.winner(mi)
			if fw != ow || fp.Bundle != op.Bundle || math.Float64bits(fp.Score) != math.Float64bits(op.Score) {
				t.Fatalf("round %d message %d (stream #%d): floored reduce picks shard %d bundle %d score %v, full probes pick shard %d bundle %d score %v",
					ri, mi, seen+mi, fw, fp.Bundle, fp.Score, ow, op.Bundle, op.Score)
			}
		}
		seen += len(batch)
		if err := fl.resolve(batch); err != nil {
			t.Fatal(err)
		}
		if err := or.resolve(batch); err != nil {
			t.Fatal(err)
		}
		if fl.Cross() != or.Cross() {
			t.Fatalf("round %d: cross count %d, full probes %d", ri, fl.Cross(), or.Cross())
		}
	}
	for i := 0; i < n; i++ {
		fs, os := fl.ShardSnapshot(i), or.ShardSnapshot(i)
		if fs.BundlesCreated != os.BundlesCreated || fs.EdgesCreated != os.EdgesCreated || fs.Pool != os.Pool {
			t.Fatalf("shard %d stats differ:\n  %+v\nvs %+v", i, fs, os)
		}
		assertPartitionsEqual(t, livePartition(or.ShardEngine(i)), livePartition(fl.ShardEngine(i)))
	}
	w, g := oEdges.sorted(), fEdges.sorted()
	if len(w) != len(g) {
		t.Fatalf("%d edges, full probes %d", len(g), len(w))
	}
	for i := range w {
		if w[i] != g[i] {
			t.Fatalf("edge %d differs: got %+v, want %+v", i, g[i], w[i])
		}
	}
}

// tieAtFloor is a stream whose last message ties two shards at exactly
// its floor, with the tie going to the shard whose seed is below it:
// shard 1 holds Y (#h2, older) and Z (#h3), shard 0 holds X (#h1), Z and
// X were last updated at the same instant, and Z's founder came first.
// The message carries #h1 #h2 #h3, so shard 1 seeds on Y (fetched
// first: equal hits, lower ID), shard 0's seed X is the floor, and Z
// scores exactly the floor on resume. Generated streams never produce
// such a tie, yet a resume that took only scores above the floor would
// drop Z and hand the message to X.
func tieAtFloor(t *testing.T) []*tweet.Message {
	t.Helper()
	// home names a hashtag whose message routes to shard i of 2.
	home := func(i int, prefix string) string {
		for k := 0; ; k++ {
			tag := fmt.Sprintf("%s%d", prefix, k)
			if Route(doc(tweet.Message{Hashtags: []string{tag}}), 2) == i {
				return tag
			}
		}
	}
	t0 := time.Date(2011, 3, 11, 0, 0, 0, 0, time.UTC)
	at := func(id tweet.ID, hours int, tags ...string) *tweet.Message {
		return &tweet.Message{Post: tweet.Post{ID: id, Date: t0.Add(time.Duration(hours) * time.Hour).UnixNano(), User: fmt.Sprintf("u%d", id)}, Hashtags: tags}
	}
	return []*tweet.Message{
		at(1, 0, home(1, "y"), "h2"), // Y on shard 1
		at(2, 1, home(1, "z"), "h3"), // Z on shard 1
		at(3, 1, home(0, "x"), "h1"), // X on shard 0, as fresh as Z
		at(4, 2, "h1", "h2", "h3"),
	}
}

func TestFlooredProbeMatchesFullProbe(t *testing.T) {
	t.Run("tie-at-floor", func(t *testing.T) {
		msgs := tieAtFloor(t)
		// The stream exercises what it says: the full probes' winner
		// scores exactly the floor, on the shard whose seed is below it.
		e, err := New(core.FullIndexConfig(), Options{Shards: 2, Batch: 1}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range msgs[:3] {
			if err := e.Ingest(m); err != nil {
				t.Fatal(err)
			}
		}
		batch := rounds(msgs[3:], 1)[0]
		e.probe(batch)
		fullProbe(e, batch)
		win, best := e.winner(0)
		if win != 1 || best.Score != e.floors[0] || e.shards[1].round.Seed(0) >= e.floors[0] {
			t.Fatalf("no tie at the floor: winner shard %d score %v, floor %v, shard 1 seed %v",
				win, best.Score, e.floors[0], e.shards[1].round.Seed(0))
		}
		checkFlooredProbe(t, core.FullIndexConfig(), msgs, 2, 1)
	})
	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"full", core.FullIndexConfig()},
		{"pool150-size40", core.BundleLimitConfig(150, 40)},
	}
	for _, seed := range []int64{21, 22} {
		msgs := genMessages(seed, 1500)
		for _, c := range configs {
			for _, n := range []int{2, 3, 4} {
				for _, b := range []int{1, 16, 256} {
					t.Run(fmt.Sprintf("seed=%d/%s/shards=%d/batch=%d", seed, c.name, n, b), func(t *testing.T) {
						checkFlooredProbe(t, c.cfg, msgs, n, b)
					})
				}
			}
		}
	}
}

// FuzzFlooredProbe runs the same check over generated streams of up to
// 2 000 messages at any seed, 2–4 shards and batch 1–256.
func FuzzFlooredProbe(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(15), uint16(800))
	f.Add(int64(7), uint8(1), uint16(255), uint16(2000))
	f.Add(int64(-3), uint8(2), uint16(0), uint16(300))
	f.Fuzz(func(t *testing.T, seed int64, n uint8, b, count uint16) {
		cfg := core.FullIndexConfig()
		if seed%2 != 0 {
			cfg = core.BundleLimitConfig(150, 40)
		}
		checkFlooredProbe(t, cfg, genMessages(seed, int(count%2001)), 2+int(n%3), 1+int(b%256))
	})
}

// matchTotals sums every provex_match_* counter over the shards of the
// engine registered on reg, by family.
func matchTotals(t *testing.T, reg *metrics.Registry) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := reg.Expose(&b); err != nil {
		t.Fatal(err)
	}
	series, err := promtext.Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for name, v := range series {
		if fam, _, _ := strings.Cut(name, "{"); strings.HasPrefix(fam, "provex_match_") {
			out[fam] += v
		}
	}
	return out
}

// TestMatchCountersPure: the match counters, provex_match_candidates_
// scored_total included, are a pure function of (stream, N, B) — two
// runs agree on the probe phase's share and on the total — and the
// floored probe does the full probe's fetch work with a fraction of its
// Eq. 1 evaluations.
func TestMatchCountersPure(t *testing.T) {
	const (
		n     = 2
		batch = 64
	)
	msgs := genMessages(23, 6000)
	// run returns the counter totals of phase 1 alone and of the whole run.
	run := func(full bool) (probe, total map[string]float64) {
		e, err := New(core.FullIndexConfig(), Options{Shards: n, Batch: batch}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		e.RegisterMetrics(reg)
		probe = map[string]float64{}
		for _, batch := range rounds(msgs, batch) {
			before := matchTotals(t, reg)
			if full {
				fullProbe(e, batch)
			} else {
				e.probe(batch)
			}
			for fam, v := range matchTotals(t, reg) {
				probe[fam] += v - before[fam]
			}
			if err := e.resolve(batch); err != nil {
				t.Fatal(err)
			}
		}
		return probe, matchTotals(t, reg)
	}
	const scored = "provex_match_candidates_scored_total"
	probe, total := run(false)
	probe2, total2 := run(false)
	fullP, fullT := run(true)
	if len(total) != 4 {
		t.Fatalf("match families %v, want the four provex_match_*_total", total)
	}
	for fam := range total {
		if probe[fam] != probe2[fam] || total[fam] != total2[fam] {
			t.Errorf("%s: probe %v then %v, total %v then %v", fam, probe[fam], probe2[fam], total[fam], total2[fam])
		}
	}
	for _, fam := range []string{"provex_match_postings_walked_total", "provex_match_candidates_fetched_total"} {
		if probe[fam] != fullP[fam] || total[fam] != fullT[fam] {
			t.Errorf("%s: floored probe %v (run %v), full probe %v (run %v): fetch work moved", fam, probe[fam], total[fam], fullP[fam], fullT[fam])
		}
	}
	if probe[scored] == 0 || probe[scored] > 0.5*fullP[scored] {
		t.Errorf("probe Eq. 1 evaluations: floored %v, full %v; want at most half", probe[scored], fullP[scored])
	}
	if total[scored]-probe[scored] != fullT[scored]-fullP[scored] {
		t.Errorf("commit Eq. 1 evaluations: %v, after full probes %v", total[scored]-probe[scored], fullT[scored]-fullP[scored])
	}
	t.Logf("probe Eq. 1 evaluations: floored %v, full %v (%.1f %%)", probe[scored], fullP[scored], 100*probe[scored]/fullP[scored])
}

// TestProbeZeroAlloc pins the floored probe's two passes at zero
// allocations once a round has warmed their scratch: they run for every
// message on every shard.
func TestProbeZeroAlloc(t *testing.T) {
	const n = 2
	msgs := genMessages(29, 3000)
	e, err := New(core.FullIndexConfig(), Options{Shards: n, Batch: 256}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs[:2744] {
		if err := e.Ingest(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	batch := rounds(msgs[2744:], 256)[0]
	e.probe(batch)
	if allocs := testing.AllocsPerRun(20, func() {
		for _, sh := range e.shards {
			sh.seed(batch)
		}
		for _, sh := range e.shards {
			sh.resume(batch, e.floors)
		}
	}); allocs != 0 {
		t.Errorf("seed + resume passes allocate %.1f per round of %d messages, want 0", allocs, len(batch))
	}
}
