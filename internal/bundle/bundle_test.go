package bundle

import (
	"reflect"
	"testing"
	"time"

	"provex/internal/score"
	"provex/internal/tokenizer"
	"provex/internal/tweet"
)

var (
	base    = time.Date(2009, 9, 17, 2, 0, 0, 0, time.UTC)
	weights = score.DefaultMessageWeights()
)

func doc(id tweet.ID, user, text string, at time.Time) score.Doc {
	m := tweet.Parse(id, user, at, text)
	return score.Doc{Msg: m, Keywords: tokenizer.Keywords(text)}
}

// buildGameBundle assembles a small Yankees/Redsox bundle like the
// paper's Figure 3.
func buildGameBundle(t *testing.T) *Bundle {
	t.Helper()
	b := New(7)
	b.Add(weights, doc(1, "wharman", "Lester down #redsox", base))
	b.Add(weights, doc(2, "dims", "unbelievable!! #redsox", base.Add(10*time.Minute)))
	b.Add(weights, doc(3, "amaliebenjamin", "Lester getting an ovation from the #yankee crowd #redsox", base.Add(20*time.Minute)))
	b.Add(weights, doc(4, "abcdude", "Classy RT @amaliebenjamin: Lester getting an ovation from the #yankee crowd #redsox", base.Add(25*time.Minute)))
	if err := b.Validate(); err != nil {
		t.Fatalf("bundle invalid: %v", err)
	}
	return b
}

func TestAddBuildsTrail(t *testing.T) {
	b := buildGameBundle(t)
	if b.Size() != 4 {
		t.Fatalf("Size = %d, want 4", b.Size())
	}
	nodes := b.Nodes()
	if nodes[0].Parent != NoParent {
		t.Errorf("first node parent = %d, want NoParent", nodes[0].Parent)
	}
	// Node 3 re-shares node 2's author: must connect to it with ConnRT.
	if nodes[3].Parent != 2 || nodes[3].Conn != score.ConnRT {
		t.Errorf("RT node parent=%d conn=%v, want parent=2 conn=rt", nodes[3].Parent, nodes[3].Conn)
	}
	// Every non-root edge carries a positive score.
	for i, n := range nodes {
		if n.Parent != NoParent && n.Score <= 0 {
			t.Errorf("node %d edge score %v, want > 0", i, n.Score)
		}
	}
}

func TestEdges(t *testing.T) {
	b := buildGameBundle(t)
	edges := b.Edges()
	if len(edges) != 3 {
		t.Fatalf("Edges = %v, want 3 edges", edges)
	}
	found := false
	for _, e := range edges {
		if e.Parent == 3 && e.Child == 4 {
			found = true
		}
		if e.Parent >= e.Child {
			t.Errorf("edge %v points forward in stream order", e)
		}
	}
	if !found {
		t.Errorf("missing RT edge 3->4 in %v", edges)
	}
}

func TestSummaryCounts(t *testing.T) {
	b := buildGameBundle(t)
	if got := b.TagCount("redsox"); got != 4 {
		t.Errorf("TagCount(redsox) = %d, want 4", got)
	}
	if got := b.TagCount("yankee"); got != 2 {
		t.Errorf("TagCount(yankee) = %d, want 2", got)
	}
	if !b.HasUser("dims") || b.HasUser("stranger") {
		t.Error("HasUser wrong")
	}
	if got := b.KeywordCount("lester"); got != 3 {
		t.Errorf("KeywordCount(lester) = %d, want 3", got)
	}
}

func TestExtent(t *testing.T) {
	b := buildGameBundle(t)
	if !b.StartTime().Equal(base) {
		t.Errorf("StartTime = %v, want %v", b.StartTime(), base)
	}
	want := base.Add(25 * time.Minute)
	if !b.EndTime().Equal(want) {
		t.Errorf("EndTime = %v, want %v", b.EndTime(), want)
	}
}

func TestUnrelatedMessageBecomesRoot(t *testing.T) {
	b := New(1)
	b.Add(weights, doc(1, "a", "first topic #one", base))
	idx := b.Add(weights, doc(2, "b", "completely different subject", base.Add(time.Minute)))
	if got := b.Nodes()[idx].Parent; got != NoParent {
		t.Errorf("unrelated message parent = %d, want NoParent (forest root)", got)
	}
	if len(b.Roots()) != 2 {
		t.Errorf("Roots = %v, want 2 roots", b.Roots())
	}
}

func TestBestParentWins(t *testing.T) {
	b := New(1)
	b.Add(weights, doc(1, "a", "game update #redsox", base))
	b.Add(weights, doc(2, "b", "game over #redsox http://bit.ly/x", base.Add(time.Minute)))
	// Shares URL+tag with node 1, only tag with node 0 → must pick 1.
	idx := b.Add(weights, doc(3, "c", "replay http://bit.ly/x #redsox", base.Add(2*time.Minute)))
	if got := b.Nodes()[idx].Parent; got != 1 {
		t.Errorf("parent = %d, want 1 (stronger URL overlap)", got)
	}
	if got := b.Nodes()[idx].Conn; got != score.ConnURL {
		t.Errorf("conn = %v, want url", got)
	}
}

func TestClosedBundlePanics(t *testing.T) {
	b := New(1)
	b.Add(weights, doc(1, "a", "msg #t", base))
	b.Close()
	if !b.Closed() {
		t.Fatal("Closed() false after Close")
	}
	defer func() {
		if recover() == nil {
			t.Error("Add to closed bundle did not panic")
		}
	}()
	b.Add(weights, doc(2, "b", "more #t", base.Add(time.Minute)))
}

func TestChildrenAndRoots(t *testing.T) {
	b := buildGameBundle(t)
	for _, r := range b.Roots() {
		if b.Nodes()[r].Parent != NoParent {
			t.Errorf("root %d has a parent", r)
		}
	}
	kids := b.Children(2)
	if !reflect.DeepEqual(kids, []int{3}) {
		t.Errorf("Children(2) = %v, want [3]", kids)
	}
}

func TestSummaryWords(t *testing.T) {
	b := buildGameBundle(t)
	words := b.SummaryWords(5)
	if len(words) == 0 || words[0] != "redsox" {
		t.Errorf("SummaryWords = %v, want redsox first (tag counted double)", words)
	}
}

func TestMemBytesGrows(t *testing.T) {
	b := New(1)
	before := b.MemBytes()
	b.Add(weights, doc(1, "a", "some message #tag http://bit.ly/q", base))
	if b.MemBytes() <= before {
		t.Errorf("MemBytes did not grow: %d -> %d", before, b.MemBytes())
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	b := buildGameBundle(t)
	b.findRow(classTag, "redsox").count = 99
	if err := b.Validate(); err == nil {
		t.Error("Validate accepted a corrupted summary row")
	}
	big := buildSized(PruneMinNodes)
	p := big.idx[classUser]["user0"]
	p.count = 99
	big.idx[classUser]["user0"] = p
	if err := big.Validate(); err == nil {
		t.Error("Validate accepted a corrupted index entry")
	}
	early := buildSized(PruneMinNodes - 1)
	early.idx, early.rows = new(index), nil
	if err := early.Validate(); err == nil {
		t.Error("Validate accepted an index below PruneMinNodes")
	}
	b2 := buildGameBundle(t)
	b2.nodes[1].Parent = 3 // forward reference
	if err := b2.Validate(); err == nil {
		t.Error("Validate accepted forward parent link")
	}
}

func TestIndicants(t *testing.T) {
	b := buildGameBundle(t)
	tags, urls, keys, users := b.Indicants()
	if !reflect.DeepEqual(users, []string{"abcdude", "amaliebenjamin", "dims", "wharman"}) {
		t.Errorf("users = %v", users)
	}
	if !reflect.DeepEqual(tags, []string{"redsox", "yankee"}) {
		t.Errorf("tags = %v", tags)
	}
	if len(urls) != 0 {
		t.Errorf("urls = %v, want none", urls)
	}
	if len(keys) == 0 {
		t.Errorf("keys empty")
	}
}
