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
)

// Method names used across series and tables.
const (
	MethodFull    = "full"    // Full Index — no limits, ground truth
	MethodPartial = "partial" // Partial Index — pool limit + refinement
	MethodLimit   = "limit"   // Bundle Limit — partial + bundle size cap
)

// ThreeResult is the shared product of one stream pass through the
// paper's three method variants. Figures 7, 8, 11, 12 and 13 are all
// views over it.
type ThreeResult struct {
	Scale       Scale
	Checkpoints []int                // messages ingested at each sample
	Series      map[string][]float64 // "<method>/<metric>" -> values
	Final       map[string]core.Stats
}

// at reads series values safely.
func (r *ThreeResult) at(key string, i int) float64 {
	s := r.Series[key]
	if i >= len(s) {
		return 0
	}
	return s[i]
}

// RunThreeMethods ingests one generated stream (Scale.Messages long)
// through Full Index, Partial Index and Bundle Limit engines
// simultaneously — the paper's Section VI-A simulation — sampling every
// per-method metric at checkpoints.
//
// Feeding all three engines in a single pass guarantees each sees the
// byte-identical stream, and lets accuracy/return be computed against
// the ground-truth edge set at the same stream position, exactly as the
// paper's date-checkpoint collection does.
func RunThreeMethods(s Scale) *ThreeResult {
	g := gen.New(s.genConfig())

	truth := eval.NewEdgeSet()
	full := core.New(core.FullIndexConfig(), nil, truth.Observe)

	partialEdges := eval.NewEdgeSet()
	partial := core.New(core.PartialIndexConfig(s.PoolLimit), nil, partialEdges.Observe)

	limitEdges := eval.NewEdgeSet()
	limit := core.New(core.BundleLimitConfig(s.PoolLimit, s.BundleLimit), nil, limitEdges.Observe)

	methods := []struct {
		name  string
		eng   *core.Engine
		edges *eval.EdgeSet
	}{
		{MethodFull, full, truth},
		{MethodPartial, partial, partialEdges},
		{MethodLimit, limit, limitEdges},
	}

	res := &ThreeResult{Scale: s, Series: make(map[string][]float64), Final: make(map[string]core.Stats)}
	every := s.checkpointEvery(s.Messages)
	push := func(key string, v float64) { res.Series[key] = append(res.Series[key], v) }

	for i := 1; i <= s.Messages; i++ {
		m := g.Next()
		for _, mt := range methods {
			mt.eng.Insert(m) // shared: a message is immutable once generated
		}
		if i%every == 0 || i == s.Messages {
			res.Checkpoints = append(res.Checkpoints, i)
			for _, mt := range methods {
				st := mt.eng.Snapshot()
				push(mt.name+"/bundles", float64(st.BundlesLive))
				push(mt.name+"/memMB", float64(st.MemTotal())/(1<<20))
				push(mt.name+"/msgsInMem", float64(st.MessagesInMemory))
				push(mt.name+"/time_s", (st.MatchTime + st.PlaceTime + st.RefineTime).Seconds())
				push(mt.name+"/match_s", st.MatchTime.Seconds())
				push(mt.name+"/place_s", st.PlaceTime.Seconds())
				push(mt.name+"/refine_s", st.RefineTime.Seconds())
				if mt.name != MethodFull {
					m := eval.Compare(mt.edges, truth)
					push(mt.name+"/accuracy", m.Accuracy)
					push(mt.name+"/return", m.Return)
					push(mt.name+"/matched", float64(m.Matched))
				}
			}
		}
	}
	for _, mt := range methods {
		res.Final[mt.name] = mt.eng.Snapshot()
	}
	return res
}

// Fig6 reproduces Figure 6, "Provenance Bundle Characters": the bundle
// size distribution (a) and the bundle active time-span distribution
// (b) of an unrestricted Full Index run, plus the headline bundle count
// the paper reports in Section V-A (~30k bundles from 700k messages).
func Fig6(s Scale) []*Table {
	g := gen.New(s.genConfig())
	e := core.New(core.FullIndexConfig(), nil, nil)
	for i := 0; i < s.Messages; i++ {
		e.Insert(g.Next())
	}
	sizeHist := metrics.NewPow2Histogram(14)                                // 1 .. 8192 messages
	spanHist := metrics.NewHistogram(1, 2, 4, 8, 16, 32, 64, 128, 256, 512) // hours
	e.Pool().All(func(b *bundle.Bundle) {
		sizeHist.Observe(int64(b.Size()))
		span := b.EndTime().Sub(b.StartTime()).Hours()
		spanHist.Observe(int64(span + 0.5))
	})

	st := e.Snapshot()
	sizes := &Table{
		Title:   "Fig 6(a) bundle size distribution (full index, no limits)",
		Columns: []string{"size<=", "bundle_count"},
		Notes: fmt.Sprintf("%d messages -> %d bundles (paper: 700k -> ~30k); paper shape: most bundles small, long tail of large event bundles",
			st.Messages, st.BundlesLive),
	}
	buckets, _, _, _ := sizeHist.Snapshot()
	for _, b := range buckets {
		label := "overflow"
		if b.UpperBound >= 0 {
			label = fmt.Sprintf("%d", b.UpperBound)
		}
		sizes.AddRow(label, b.Count)
	}

	spans := &Table{
		Title:   "Fig 6(b) bundle time-span distribution (hours)",
		Columns: []string{"span_hours<=", "bundle_count"},
		Notes:   "paper shape: most bundles stop receiving updates within a day",
	}
	buckets, _, _, _ = spanHist.Snapshot()
	for _, b := range buckets {
		label := "overflow"
		if b.UpperBound >= 0 {
			label = fmt.Sprintf("%d", b.UpperBound)
		}
		spans.AddRow(label, b.Count)
	}
	return []*Table{sizes, spans}
}

// Fig7 is Figure 7, "Provenance Bundle Growth under Different
// Approaches": live-bundle count versus incoming messages for the
// three methods.
func Fig7(r *ThreeResult) *Table {
	t := &Table{
		Title:   "Fig 7 bundle count in pool vs incoming messages",
		Columns: []string{"messages", MethodFull, MethodPartial, MethodLimit},
		Notes:   "paper shape: full grows linearly; partial/limit saturate near the pool limit after an initial drop",
	}
	for i, n := range r.Checkpoints {
		t.AddRow(n,
			int(r.at(MethodFull+"/bundles", i)),
			int(r.at(MethodPartial+"/bundles", i)),
			int(r.at(MethodLimit+"/bundles", i)))
	}
	return t
}

// Fig8 is Figure 8: (a) accuracy and (b) return of the two partial
// methods against the Full Index ground truth, with the matched-pair
// counts the paper draws as bars.
func Fig8(r *ThreeResult) []*Table {
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
	for i, n := range r.Checkpoints {
		pm := int(r.at(MethodPartial+"/matched", i))
		lm := int(r.at(MethodLimit+"/matched", i))
		acc.AddRow(n, r.at(MethodPartial+"/accuracy", i), r.at(MethodLimit+"/accuracy", i), pm, lm)
		ret.AddRow(n, r.at(MethodPartial+"/return", i), r.at(MethodLimit+"/return", i), pm, lm)
	}
	return []*Table{acc, ret}
}

// Fig9 is Figure 9: final-checkpoint accuracy of the Partial Index
// under different pool limits over the longer sweep stream. All limit
// variants ingest the same stream in one pass alongside the
// ground-truth engine.
func Fig9(s Scale) *Table {
	g := gen.New(s.genConfig())
	truth := eval.NewEdgeSet()
	full := core.New(core.FullIndexConfig(), nil, truth.Observe)

	type variant struct {
		limit int
		eng   *core.Engine
		edges *eval.EdgeSet
	}
	variants := make([]*variant, 0, len(s.SweepLimits))
	for _, lim := range s.SweepLimits {
		es := eval.NewEdgeSet()
		variants = append(variants, &variant{
			limit: lim,
			eng:   core.New(core.PartialIndexConfig(lim), nil, es.Observe),
			edges: es,
		})
	}

	t := &Table{
		Title:   "Fig 9 accuracy under different pool limits (partial index)",
		Columns: []string{"messages"},
		Notes:   "paper shape: small pools degrade hard; pools >= ~0.5% of stream stay stable and high",
	}
	for _, v := range variants {
		t.Columns = append(t.Columns, fmt.Sprintf("pool_%d", v.limit))
	}

	every := s.checkpointEvery(s.SweepMessages)
	for i := 1; i <= s.SweepMessages; i++ {
		m := g.Next()
		full.Insert(m)
		for _, v := range variants {
			v.eng.Insert(m)
		}
		if i%every == 0 || i == s.SweepMessages {
			row := []interface{}{i}
			for _, v := range variants {
				row = append(row, eval.Compare(v.edges, truth).Accuracy)
			}
			t.AddRow(row...)
		}
	}
	return t
}

// Fig10 reproduces Figure 10's showcase bundles: two scripted September
// 2009 events (the IBM CICS partner conference and the Samoa tsunami)
// are injected into the stream, retrieved by query, and their
// provenance trails rendered. It returns the summary table and the two
// rendered trails.
func Fig10(s Scale) (*Table, []string) {
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

// Fig11 is Figure 11: (a) estimated memory cost in MB and (b) message
// count held in memory, per method over the stream.
func Fig11(r *ThreeResult) []*Table {
	mem := &Table{
		Title:   "Fig 11(a) memory cost (estimated MB) vs incoming messages",
		Columns: []string{"messages", MethodFull, MethodPartial, MethodLimit},
		Notes:   "paper shape: full grows unboundedly (~170M); partial variants flat at a low level (~10M)",
	}
	cnt := &Table{
		Title:   "Fig 11(b) message count in memory vs incoming messages",
		Columns: []string{"messages", MethodFull, MethodPartial, MethodLimit},
		Notes:   "paper shape: same ordering as (a), hardware-independent",
	}
	for i, n := range r.Checkpoints {
		mem.AddRow(n, r.at(MethodFull+"/memMB", i), r.at(MethodPartial+"/memMB", i), r.at(MethodLimit+"/memMB", i))
		cnt.AddRow(n,
			int(r.at(MethodFull+"/msgsInMem", i)),
			int(r.at(MethodPartial+"/msgsInMem", i)),
			int(r.at(MethodLimit+"/msgsInMem", i)))
	}
	return []*Table{mem, cnt}
}

// Fig12 is Figure 12: cumulative provenance-maintenance time per method.
func Fig12(r *ThreeResult) *Table {
	t := &Table{
		Title:   "Fig 12 cumulative time cost (seconds) vs incoming messages",
		Columns: []string{"messages", MethodFull, MethodPartial, MethodLimit},
		Notes:   "paper shape: all three linear; partial variants at or below full",
	}
	for i, n := range r.Checkpoints {
		t.AddRow(n, r.at(MethodFull+"/time_s", i), r.at(MethodPartial+"/time_s", i), r.at(MethodLimit+"/time_s", i))
	}
	return t
}

// Fig13 is Figure 13: cumulative time per pipeline stage (bundle match,
// message placement, memory refinement) for the Partial Index method.
func Fig13(r *ThreeResult) *Table {
	t := &Table{
		Title:   "Fig 13 cumulative stage time (seconds, partial index)",
		Columns: []string{"messages", "bundle_match", "message_placement", "memory_refinement"},
		Notes:   "paper shape: all stages linear and steady; refinement cheapest",
	}
	for i, n := range r.Checkpoints {
		t.AddRow(n,
			r.at(MethodPartial+"/match_s", i),
			r.at(MethodPartial+"/place_s", i),
			r.at(MethodPartial+"/refine_s", i))
	}
	return t
}

// ConnBreakdown is a bonus table (Table II instantiated): how many
// provenance edges of the ground-truth run each connection type
// contributed.
func ConnBreakdown(r *ThreeResult) *Table {
	t := &Table{
		Title:   "Connection type breakdown (full index)",
		Columns: []string{"type", "edges"},
	}
	st, ok := r.Final[MethodFull]
	if !ok {
		return t
	}
	types := make([]string, 0, len(st.ConnCounts))
	for k := range st.ConnCounts {
		types = append(types, k)
	}
	sort.Strings(types)
	for _, k := range types {
		t.AddRow(k, st.ConnCounts[k])
	}
	return t
}
