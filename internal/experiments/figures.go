package experiments

import (
	"fmt"
	"sort"

	"provex/internal/bundle"
	"provex/internal/core"
	"provex/internal/eval"
	"provex/internal/gen"
	"provex/internal/metrics"
	"provex/internal/query"
	"provex/internal/tweet"
)

// Method names: the three-method variants and their table columns.
const (
	MethodFull    = "full"    // Full Index — no limits, ground truth
	MethodPartial = "partial" // Partial Index — pool limit + refinement
	MethodLimit   = "limit"   // Bundle Limit — partial + bundle size cap
)

// addThree adds the paper's three methods over Messages: the truth as
// Full Index beside Partial Index and Bundle Limit, sampled at every
// checkpoint, accuracy and return scored against the truth at the same
// stream position as the paper's date checkpoints are. Its tables are
// Figures 7, 8, 11, 12 and 13 and, at Messages, the connection
// breakdown.
func (p *pass) addThree() {
	s := p.s
	methods := []string{"messages", MethodFull, MethodPartial, MethodLimit}
	fig7 := &Table{
		Title:   "Fig 7 bundle count in pool vs incoming messages",
		Columns: methods,
		Notes:   "paper shape: full grows linearly; partial/limit saturate near the pool limit after an initial drop",
	}
	acc := &Table{
		Title:   "Fig 8(a) provenance accuracy vs incoming messages",
		Columns: []string{"messages", "partial_acc", "limit_acc", "partial_matched", "limit_matched"},
		Notes:   "paper shape: both stay high (>0.5 axis); partial index slightly above bundle limit",
	}
	ret := &Table{
		Title:   "Fig 8(b) provenance return (coverage) vs incoming messages",
		Columns: []string{"messages", "partial_ret", "limit_ret", "partial_matched", "limit_matched"},
		Notes:   "paper shape: both around the middle of [0,1]; partial above bundle limit",
	}
	mem := &Table{
		Title:   "Fig 11(a) memory cost (estimated MB) vs incoming messages",
		Columns: methods,
		Notes:   "paper shape: full grows unboundedly (~170M); partial variants flat at a low level (~10M)",
	}
	cnt := &Table{
		Title:   "Fig 11(b) message count in memory vs incoming messages",
		Columns: methods,
		Notes:   "paper shape: same ordering as (a), hardware-independent",
	}
	fig12 := &Table{
		Title:   "Fig 12 cumulative time cost (seconds) vs incoming messages",
		Columns: methods,
		Notes:   "paper shape: all three linear; partial variants at or below full",
	}
	fig13 := &Table{
		Title:   "Fig 13 cumulative stage time (seconds, partial index)",
		Columns: []string{"messages", "bundle_match", "message_placement", "memory_refinement"},
		Notes:   "paper shape: all stages linear and steady; refinement cheapest",
	}
	// Table II instantiated: the edges of each connection type.
	conns := &Table{Title: "Connection type breakdown (full index)", Columns: []string{"type", "edges"}}
	p.figs["fig7"] = []*Table{fig7}
	p.figs["fig8"] = []*Table{acc, ret}
	p.figs["fig11"] = []*Table{mem, cnt}
	p.figs["fig12"] = []*Table{fig12}
	p.figs["fig13"] = []*Table{fig13}
	p.figs["conn-breakdown"] = []*Table{conns}

	partial := newVariant(MethodPartial, core.PartialIndexConfig(s.PoolLimit))
	limit := newVariant(MethodLimit, core.BundleLimitConfig(s.PoolLimit, s.BundleLimit))
	p.add(s.Messages, s.checkpointEvery(s.Messages), []*variant{partial, limit}, func(i int) {
		st := [3]core.Stats{p.truth.eng.Snapshot(), partial.eng.Snapshot(), limit.eng.Snapshot()}
		row := func(f func(core.Stats) interface{}) []interface{} {
			return []interface{}{i, f(st[0]), f(st[1]), f(st[2])}
		}
		pm, lm := eval.Compare(partial.edges, p.truth.edges), eval.Compare(limit.edges, p.truth.edges)
		fig7.AddRow(row(func(st core.Stats) interface{} { return st.BundlesLive })...)
		acc.AddRow(i, pm.Accuracy, lm.Accuracy, pm.Matched, lm.Matched)
		ret.AddRow(i, pm.Return, lm.Return, pm.Matched, lm.Matched)
		mem.AddRow(row(func(st core.Stats) interface{} { return float64(st.MemTotal()) / (1 << 20) })...)
		cnt.AddRow(row(func(st core.Stats) interface{} { return st.MessagesInMemory })...)
		fig12.AddRow(row(func(st core.Stats) interface{} { return (st.MatchTime + st.PlaceTime + st.RefineTime).Seconds() })...)
		fig13.AddRow(i, st[1].MatchTime.Seconds(), st[1].PlaceTime.Seconds(), st[1].RefineTime.Seconds())
		if i == s.Messages {
			types := make([]string, 0, len(st[0].ConnCounts))
			for k := range st[0].ConnCounts {
				types = append(types, k)
			}
			sort.Strings(types)
			for _, k := range types {
				conns.AddRow(k, st[0].ConnCounts[k])
			}
		}
	})
}

// addFig6 adds Figure 6, "Provenance Bundle Characters": the bundle
// size distribution (a) and the bundle active time-span distribution
// (b) of the truth at Messages, plus the headline bundle count the
// paper reports in Section V-A (~30k bundles from 700k messages).
func (p *pass) addFig6() {
	p.add(p.s.Messages, p.s.Messages, nil, func(int) {
		sizeHist := metrics.NewPow2Histogram(14)                                // 1 .. 8192 messages
		spanHist := metrics.NewHistogram(1, 2, 4, 8, 16, 32, 64, 128, 256, 512) // hours
		p.truth.eng.Pool().All(func(r bundle.Ref) {
			b := r.Expand()
			sizeHist.Observe(int64(b.Size()))
			span := tweet.Sub(b.LastDate(), b.StartDate()).Hours()
			spanHist.Observe(int64(span + 0.5))
		})
		st := p.truth.eng.Snapshot()
		sizes := &Table{
			Title:   "Fig 6(a) bundle size distribution (full index, no limits)",
			Columns: []string{"size<=", "bundle_count"},
			Notes: fmt.Sprintf("%d messages -> %d bundles (paper: 700k -> ~30k); paper shape: most bundles small, long tail of large event bundles",
				st.Messages, st.BundlesLive),
		}
		spans := &Table{
			Title:   "Fig 6(b) bundle time-span distribution (hours)",
			Columns: []string{"span_hours<=", "bundle_count"},
			Notes:   "paper shape: most bundles stop receiving updates within a day",
		}
		for _, h := range []struct {
			t    *Table
			hist *metrics.Histogram
		}{{sizes, sizeHist}, {spans, spanHist}} {
			buckets, _, _, _ := h.hist.Snapshot()
			for _, b := range buckets {
				label := "overflow"
				if b.UpperBound >= 0 {
					label = fmt.Sprintf("%d", b.UpperBound)
				}
				h.t.AddRow(label, b.Count)
			}
		}
		p.figs["fig6"] = []*Table{sizes, spans}
	})
}

// addFig9 adds Figure 9: the accuracy of the Partial Index under each
// pool limit against the truth over the longer sweep stream.
func (p *pass) addFig9() {
	s := p.s
	t := &Table{
		Title:   "Fig 9 accuracy under different pool limits (partial index)",
		Columns: []string{"messages"},
		Notes:   "paper shape: small pools degrade hard; pools >= ~0.5% of stream stay stable and high",
	}
	p.figs["fig9"] = []*Table{t}
	variants := make([]*variant, len(s.SweepLimits))
	for i, lim := range s.SweepLimits {
		variants[i] = newVariant(fmt.Sprintf("pool_%d", lim), core.PartialIndexConfig(lim))
		t.Columns = append(t.Columns, variants[i].name)
	}
	p.add(s.SweepMessages, s.checkpointEvery(s.SweepMessages), variants, func(i int) {
		row := []interface{}{i}
		for _, v := range variants {
			row = append(row, eval.Compare(v.edges, p.truth.edges).Accuracy)
		}
		t.AddRow(row...)
	})
}

// fig10 reproduces Figure 10's showcase bundles: two scripted September
// 2009 events (the IBM CICS partner conference and the Samoa tsunami)
// are injected into the stream, retrieved by query, and their
// provenance trails rendered. It returns the summary table and the two
// rendered trails.
func fig10(s Scale) (*Table, []string) {
	g := gen.New(s.showcaseConfig())
	proc := query.New(core.New(core.FullIndexConfig(), nil, nil), query.DefaultOptions())
	n := s.Messages / 2
	if n > 150_000 {
		n = 150_000 // the showcases live in the first two days of stream
	}
	for i := 0; i < n; i++ {
		proc.Insert(g.Next())
	}
	t := &Table{
		Title:   "Fig 10 extracted provenance bundle showcases",
		Columns: []string{"event", "bundle_id", "size", "last_post", "summary"},
		Notes:   "paper: red root node, provenance connections reveal propagation trails",
	}
	var trails []string
	for _, q := range []struct{ name, query string }{
		{"IBM CICS partner conference", "cics ibm conference"},
		{"Samoa tsunami", "tsunami samoa"},
	} {
		hits := proc.SearchBundles(q.query, 1)
		if len(hits) == 0 {
			t.AddRow(q.name, "-", 0, "-", "no bundle found")
			continue
		}
		h := hits[0]
		t.AddRow(q.name, h.ID, h.Size, h.LastPost.Format("2006-01-02 15:04"), fmt.Sprintf("%v", h.Summary))
		trail, err := proc.Trail(h.ID)
		if err != nil {
			trail = fmt.Sprintf("trail error: %v", err)
		}
		trails = append(trails, trail)
	}
	return t, trails
}
