package bundle

import (
	"testing"
	"unsafe"

	"provex/internal/metrics"
	"provex/internal/score"
	"provex/internal/termdict"
	"provex/internal/tweet"
)

// sizeClass rounds n up to the Go allocator's size class, for the
// classes a per-message struct can fall in.
func sizeClass(n uintptr) uintptr {
	for _, c := range []uintptr{8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224, 240, 256} {
		if n <= c {
			return c
		}
	}
	return n
}

// TestMemEstimateMatchesLayouts ties every struct-derived constant of
// metrics/memest.go to the layout it prices, so bundle.mem_mb and
// sumindex.mem_mb follow a struct that changes size: an allocation is
// charged its size class, a slice element or map slot its size. It also
// pins the layouts the term dictionary and the Post bought: a Doc is a
// post pointer and one ID list, a Node 48 bytes.
func TestMemEstimateMatchesLayouts(t *testing.T) {
	for _, c := range []struct {
		name       string
		got, model uintptr
	}{
		{"score.Doc", unsafe.Sizeof(score.Doc{}), 32},
		{"bundle.Node", unsafe.Sizeof(Node{}), 48},
		{"MessageBase (tweet.Post, size class)", sizeClass(unsafe.Sizeof(tweet.Post{})), metrics.MessageBase},
		{"NodeBase (bundle.Node, size class)", sizeClass(unsafe.Sizeof(Node{})), metrics.NodeBase},
		{"TermRefCost (termdict.ID)", unsafe.Sizeof(termdict.ID(0)), metrics.TermRefCost},
		{"SummaryRowCost (bundle.row)", unsafe.Sizeof(row{}), metrics.SummaryRowCost},
		{"PostingCost (summary-index posting, bundle.ID)", unsafe.Sizeof(ID(0)), metrics.PostingCost},
		{"MapEntryCost (index slot)", unsafe.Sizeof(struct {
			k termdict.ID
			v posting
		}{}), metrics.MapEntryCost},
	} {
		if c.got != c.model {
			t.Errorf("%s: layout %d B, model %d B", c.name, c.got, c.model)
		}
	}
}
