package bundle

import (
	"testing"
	"unsafe"

	"provex/internal/metrics"
	"provex/internal/score"
	"provex/internal/termdict"
)

// TestMemEstimateMatchesLayouts ties every struct-derived constant of
// metrics/memest.go to the layout it prices, so bundle.mem_mb and
// sumindex.mem_mb follow a struct that changes size: a slice element or
// map slot is charged its size, a message record its header (the term
// list and the text are charged by length). It also pins the layouts
// the one-record message bought: a Doc is one pointer, a Node 16 bytes
// with its score derived; the Bundle in its 80-byte size class; the Ref
// a pool hands out, three words, and the record form's summary, one
// pointer, which an interface holds unboxed; and the large-bundle
// index: a 4-byte reference per term in its map, and the element sizes
// its arrays grow by. An open bundle of one message is priced at its
// record alone (Ref.MemBytes): the pool's table prices its slot.
func TestMemEstimateMatchesLayouts(t *testing.T) {
	for _, c := range []struct {
		name       string
		got, model uintptr
	}{
		{"score.Doc", unsafe.Sizeof(score.Doc{}), 8},
		{"bundle.Node", unsafe.Sizeof(Node{}), 16},
		{"bundle.Bundle", unsafe.Sizeof(Bundle{}), 80},
		{"bundle.Ref (a Bundle pointer, a record handle, the ID)", unsafe.Sizeof(Ref{}), 24},
		{"the record form's summary (*single, one pointer)", unsafe.Sizeof((*single)(nil)), 8},
		{"BundleBase (bundle.Bundle)", unsafe.Sizeof(Bundle{}), metrics.BundleBase},
		{"MessageBase (score.Msg, the record header)", unsafe.Sizeof(score.Msg{}), metrics.MessageBase},
		{"NodeBase (bundle.Node, a slice element)", unsafe.Sizeof(Node{}), metrics.NodeBase},
		{"TermRefCost (termdict.ID)", unsafe.Sizeof(termdict.ID(0)), metrics.TermRefCost},
		{"SummaryRowCost (bundle.row)", unsafe.Sizeof(row{}), metrics.SummaryRowCost},
		{"PostingCost (summary-index posting, a uint32 offset)", unsafe.Sizeof(uint32(0)), metrics.PostingCost},
		{"ListSlotCost (summary-index list-table slot)", unsafe.Sizeof([]uint32(nil)), metrics.ListSlotCost},
		{"a term-map slot (MapEntryCost adds its control byte and load-factor slack)", unsafe.Sizeof(struct {
			k termdict.ID
			v uint32
		}{}), 8},
		{"nodeIDSize (an entry of single or a node list; NodeRefCost adds growth slack)", unsafe.Sizeof(int32(0)), nodeIDSize},
		{"listHeaderSize (an entry of the lists table; NodeListCost adds growth slack)", unsafe.Sizeof([]int32(nil)), listHeaderSize},
		{"bundle.index (SummaryIndexBase prices it at its 64-byte size class)", unsafe.Sizeof(index{}), 56},
	} {
		if c.got != c.model {
			t.Errorf("%s: layout %d B, model %d B", c.name, c.got, c.model)
		}
	}
}
