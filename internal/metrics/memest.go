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
// class; bundle/memest_test.go holds them to the layouts. NodeRefCost
// and NodeListCost price arrays that grow on bundle/grow.go's size-class
// schedule, so they carry that schedule's slack, and MapEntryCost a
// Swiss table's, all measured on the seed-1 125 000-message stream.
const (
	MapEntryCost = 16 // entry of a bundle index's term map: the 8-byte slot (4-byte term ID, 4-byte node-list reference), its control byte and the load-factor slack (1 499 280 B over 95 682 entries in 953 maps, their 48-byte headers apart)
	MessageBase  = 24 // a message record's header (score.Msg); its term list is charged by TermRefCost and its text by length — all an open bundle of one message costs, held as its record in a pool-table slot the table's bytes price
	NodeBase     = 16 // bundle tree node (16 B: record handle, parent, connection; the edge score is derived), from a bundle's second message on
	TermRefCost  = 4  // one entry of a record's term list: a term-dictionary ID; the term's bytes are the dictionary's
	BundleBase   = 80 // the Bundle struct, which fills its 80-byte size class; built at a bundle's second message, or its first when the size constraint closes it there
	PostingCost  = 4  // a summary-index posting: a bundle ID's 4-byte offset from the index's base
	ListSlotCost = 24 // a summary-index list-table slot: the slice header of a term's list, once a second bundle carries it
	NodeRefCost  = 5  // node-list entry: a 4-byte node id and its growth slack (1 734 312 B over 358 725 entries); a term on one node has its one in the shared single-node list
	NodeListCost = 26 // the 24-byte slice header of a term's own node list, once a second node carries it, in the grown lists table (36 530 slots for 33 648 lists)

	// A bundle's summary (bundle/summary.go) is its one node's record,
	// a row table from two nodes to bundle.PruneMinNodes, and an index
	// (a term map and node lists) from there up.
	SummaryRowCost   = 8   // row: term ID + count
	SummaryIndexBase = 112 // the index struct (56 B, a 64-byte size class) and its map header (48 B), charged when built; its arrays are made at the capacity their length calls for, priced by NodeRefCost and NodeListCost
)

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
