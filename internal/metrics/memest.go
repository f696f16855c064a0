package metrics

// MemEstimator tracks an analytic estimate of bytes held by the
// in-memory provenance structures. Components register additions and
// removals as they mutate; the estimate is the running sum.
//
// The model intentionally charges Go object overheads (slice and map
// headers, pointer slots) with fixed constants so the Full Index /
// Partial Index / Bundle Limit comparison of Figure 11(a) reflects the
// same relative costs as the paper's process-level measurement, without
// depending on GC state.
type MemEstimator struct {
	bytes Gauge
}

// Per-object cost constants for the 64-bit memory model. The ones read
// off a struct are its unsafe.Sizeof rounded to the allocator's size
// class; bundle/memest_test.go holds them to the layouts.
const (
	StringOverhead = 16 // string header
	MapEntryCost   = 40 // slot of a term-ID-keyed map: the 4-byte ID padded to 8 + a bundle summary's 32-byte posting (the summary index's 24-byte list header fits too)
	MessageBase    = 48 // tweet.Post, its own size class; text and user are charged by length, the indicants by TermRefCost in the Doc
	NodeBase       = 48 // bundle tree node (48 B: doc, score, parent, connection)
	TermRefCost    = 4  // one entry of a Doc's term list: a term-dictionary ID; the term's bytes are the dictionary's
	BundleBase     = 160
	PostingCost    = 8 // a summary-index posting: one bundle ID
	NodeRefCost    = 8 // node-index reference: int32 slot + growth slack

	// A bundle's summary (bundle/summary.go) is a row table below
	// bundle.PruneMinNodes nodes and one ID-keyed hash map from there up.
	SummaryRowCost   = 8  // row: term ID + count
	SummaryIndexBase = 48 // the map header, charged when built
)

// StringCost returns the estimated heap bytes of string s.
func StringCost(s string) int64 { return StringOverhead + int64(len(s)) }

// Add charges n bytes.
//
//provex:hotpath memory accounting on every pool insert
func (m *MemEstimator) Add(n int64) { m.bytes.Add(n) }

// Sub releases n bytes.
//
//provex:hotpath memory accounting on every eviction/flush
func (m *MemEstimator) Sub(n int64) { m.bytes.Add(-n) }

// Bytes returns the current estimate.
func (m *MemEstimator) Bytes() int64 { return m.bytes.Value() }
