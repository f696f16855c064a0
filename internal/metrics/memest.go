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

// Per-object cost constants for the 64-bit memory model.
const (
	StringOverhead = 16  // string header
	MapEntryCost   = 48  // amortised bucket share per map entry
	MessageBase    = 176 // Message struct (168 B, in its 176 B size class); text and user are charged by length
	NodeBase       = 64  // bundle tree node (56 B: doc, parent, score, connection) + node-slice growth slack
	TermRefCost    = 16  // one entry of a message's indicant or keyword list: a string header; the bytes are the text's or the intern table's
	BundleBase     = 160
	PostingCost    = 24 // bundle ID + count + list slot
	NodeRefCost    = 8  // node-index reference: int32 slot + growth slack

	// A bundle's summary (bundle/summary.go) is a row table below
	// bundle.PruneMinNodes nodes and four hash maps from there up.
	SummaryRowCost   = 24  // row: term header + count + class; the term's bytes are the message's
	SummaryIndexBase = 224 // the index array and four map headers, charged when built
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
