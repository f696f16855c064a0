package bundle

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"provex/internal/gen"
	"provex/internal/metrics"
	"provex/internal/score"
)

func TestMarshalRoundTrip(t *testing.T) {
	b := buildGameBundle(t)
	b.Close()
	data := b.AppendMarshal(nil)
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	assertBundleEqual(t, b, got)
	if !got.Closed() {
		t.Error("closed flag lost")
	}
	if err := got.Validate(); err != nil {
		t.Errorf("decoded bundle invalid: %v", err)
	}
}

func TestMarshalEmptyBundle(t *testing.T) {
	b := New(42)
	got, err := Unmarshal(b.AppendMarshal(nil))
	if err != nil {
		t.Fatalf("Unmarshal empty: %v", err)
	}
	if got.ID() != 42 || got.Size() != 0 {
		t.Errorf("empty round trip: id=%d size=%d", got.ID(), got.Size())
	}
}

func assertBundleEqual(t *testing.T, want, got *Bundle) {
	t.Helper()
	if got.ID() != want.ID() || got.Size() != want.Size() {
		t.Fatalf("id/size mismatch: %d/%d vs %d/%d", got.ID(), got.Size(), want.ID(), want.Size())
	}
	for i := range want.nodes {
		w, g := want.nodes[i], got.nodes[i]
		if g.Parent != w.Parent || g.Conn != w.Conn || got.EdgeScore(weights, i) != want.EdgeScore(weights, i) {
			t.Fatalf("node %d edge differs: %+v vs %+v", i, g, w)
		}
		if g.Doc.ID() != w.Doc.ID() || g.Doc.Date() != w.Doc.Date() || g.Doc.Text() != w.Doc.Text() {
			t.Fatalf("node %d message differs:\n  %v\n  %v", i, g.Doc, w.Doc)
		}
		if !reflect.DeepEqual(g.Doc.Terms(), w.Doc.Terms()) {
			t.Fatalf("node %d terms differ: %v vs %v", i, g.Doc.Terms(), w.Doc.Terms())
		}
	}
	if got.StartDate() != want.StartDate() || got.LastDate() != want.LastDate() {
		t.Error("extent differs after round trip")
	}
	if !reflect.DeepEqual(got.rows, want.rows) || !reflect.DeepEqual(got.idx, want.idx) {
		t.Error("summaries differ after round trip")
	}
	if got.MemBytes() != want.MemBytes() {
		t.Errorf("MemBytes = %d after round trip, want %d", got.MemBytes(), want.MemBytes())
	}
}

// TestRoundTripKeepsRepresentation: the summary's form is a function of
// the nodes, so a decoded bundle is in the form — and at the memory
// estimate — of the one that was encoded, on both sides of the
// threshold and at it. So is the pool's form: Decode returns an open
// bundle of one message as its record, and any larger one as the Bundle
// Unmarshal returns, and either encodes again to the same bytes.
func TestRoundTripKeepsRepresentation(t *testing.T) {
	for _, n := range []int{1, PruneMinNodes - 1, PruneMinNodes, PruneMinNodes + 1, 200} {
		b := buildSized(n)
		data := b.AppendMarshal(nil)
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("size %d: Unmarshal: %v", n, err)
		}
		assertBundleEqual(t, b, got)
		if indexed := got.idx != nil; indexed != (n >= PruneMinNodes) {
			t.Errorf("size %d decoded with indexed=%v", n, indexed)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("size %d: decoded bundle invalid: %v", n, err)
		}
		r, err := Decode(data)
		if err != nil {
			t.Fatalf("size %d: Decode: %v", n, err)
		}
		if record := r.Bundle() == nil; record != (n == 1) {
			t.Errorf("size %d decoded for the pool with record=%v", n, record)
		}
		if r != r.Compact() || r.ID() != b.ID() || r.Size() != n || r.MemBytes() > b.MemBytes() {
			t.Errorf("size %d: Decode gave bundle %d of %d messages at %d B, compacting to another form", n, r.ID(), r.Size(), r.MemBytes())
		}
		if again := r.AppendMarshal(nil); !bytes.Equal(again, data) {
			t.Errorf("size %d: the decoded form encodes to other bytes", n)
		}
		assertBundleEqual(t, b, r.Expand())
	}
}

// TestRecordFrame: a bundle held as its one message's record encodes,
// byte for byte, as the Bundle bundle.New and Add of that message would
// have — parent+1 0, score bits 0, no connection, then the raw fields —
// and decodes back to the record form; closed, it stays a Bundle.
func TestRecordFrame(t *testing.T) {
	for i, m := range oneMessageDocs() {
		id := ID(100 + i)
		want := New(id)
		want.AddScratch(weights, m, nil, nil)
		r := Single(id, m)
		data := r.AppendMarshal(nil)
		if !bytes.Equal(data, want.AppendMarshal(nil)) {
			t.Fatalf("%v: the record's frame differs from the Bundle's", m)
		}
		got, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		if got.Bundle() != nil || got.ID() != id || !reflect.DeepEqual(got.First().Terms(), m.Terms()) ||
			!bytes.Equal(got.AppendMarshal(nil), data) {
			t.Errorf("%v: decoded to %+v, want the record of bundle %d", m, got, id)
		}
		if c := want.Ref().Compact(); c != r {
			t.Errorf("%v: the open Bundle compacts to %+v, want the record", m, c)
		}
		want.Close()
		if got, err := Decode(want.AppendMarshal(nil)); err != nil || got.Bundle() == nil || !got.Closed() {
			t.Errorf("%v: a closed bundle of one message decoded to %+v (%v), want a closed Bundle", m, got, err)
		}
		if c := want.Ref().Compact(); c.Bundle() != want {
			t.Errorf("%v: a closed Bundle compacts to the record form", m)
		}
	}
}

// TestPromotionIsNewAndAdd: the Bundle a record expands to — what the
// pool promotes a record to when a second message joins — is the one
// New and Add build, field for field, and a second Add then leaves the
// two equal again: its parent, its edge score and the summary rows.
func TestPromotionIsNewAndAdd(t *testing.T) {
	docs := oneMessageDocs()
	for i, m := range docs {
		id := ID(200 + i)
		want := New(id)
		want.AddScratch(weights, m, nil, nil)
		r := Single(id, m)
		got := r.Expand()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: promoted\n%+v\nwant\n%+v", m, got, want)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("%v: promoted bundle invalid: %v", m, err)
		}
		if r.MemBytes() != want.MemBytes()-metrics.BundleBase-metrics.NodeBase {
			t.Errorf("%v: the record is priced %d B, the Bundle %d B", m, r.MemBytes(), want.MemBytes())
		}
		if r.LastDate() != want.LastDate() || r.First() != want.Nodes()[0].Doc || r.Size() != want.Size() || r.Closed() {
			t.Errorf("%v: the record reads otherwise than the Bundle", m)
		}
		if !reflect.DeepEqual(r.SummaryWords(10), want.SummaryWords(10)) || !reflect.DeepEqual(r.AppendTerms(nil), want.AppendTerms(nil)) {
			t.Errorf("%v: the record's terms differ from the Bundle's", m)
		}
		for _, term := range m.Terms() {
			if r.Stats().Count(term) != want.Count(term) {
				t.Errorf("%v: Count(%v) = %d on the record, %d on the Bundle", m, term, r.Stats().Count(term), want.Count(term))
			}
		}
		next := docs[(i+1)%len(docs)]
		second := doc(next.ID()+1000, "later", next.Text(), next.Time().Add(time.Hour))
		wn, _ := want.AddScratch(weights, second, nil, nil)
		if gn, _ := got.AddScratch(weights, second, nil, nil); wn != gn || !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: after a second Add the promoted bundle differs", m)
		}
		if got.EdgeScore(weights, 1) != want.EdgeScore(weights, 1) {
			t.Errorf("%v: second node's edge score differs", m)
		}
	}
}

// oneMessageDocs are messages of every indicant shape: plain keywords,
// a hashtag, a URL, a re-share and an empty text.
func oneMessageDocs() []score.Doc {
	at := base
	return []score.Doc{
		doc(1, "alice", "lester ovation from the crowd", at),
		doc(2, "bob", "game seven tonight #redsox", at.Add(time.Minute)),
		doc(3, "carol", "what an inning http://bit.ly/Uvcpr #redsox", at.Add(2*time.Minute)),
		doc(4, "dave", "RT @alice: lester ovation from the crowd", at.Add(3*time.Minute)),
		doc(5, "erin", "", at.Add(4*time.Minute)),
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	b := buildGameBundle(t)
	data := b.AppendMarshal(nil)

	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   append([]byte{0x00}, data[1:]...),
		"bad version": append([]byte{codecMagic, 99}, data[2:]...),
		"truncated":   data[:len(data)/2],
		"trailing":    append(append([]byte{}, data...), 0xFF),
	}
	for name, c := range cases {
		if _, err := Unmarshal(c); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestDecodeNodeCountBound: a node takes at least 6 bytes (parent,
// connection, message ID, date and two empty strings, a byte each), so
// a bundle of such nodes sits exactly at decode's plausibility bound
// and decodes, and a node count one above what its bytes can hold is
// refused before any node is read.
func TestDecodeNodeCountBound(t *testing.T) {
	const n = 10
	encode := func(count byte) []byte {
		data := []byte{codecMagic, codecVersion, 1, 1, count} // ID 1, closed
		for range n {
			data = append(data, 0, byte(score.ConnNone), 0, 0, 0, 0)
		}
		return data
	}
	if got, err := Decode(encode(n)); err != nil || got.Size() != n {
		t.Fatalf("%d minimal nodes in %d bytes: Decode = %d nodes, %v", n, len(encode(n)), got.Size(), err)
	}
	if _, err := Decode(encode(n + 1)); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "implausible node count") {
		t.Fatalf("a count of %d over %d bytes: err = %v, want an implausible node count", n+1, len(encode(n+1)), err)
	}
}

// TestUnmarshalFuzzedTruncations chops the encoding at every byte
// offset; decode must fail cleanly (never panic) on all of them.
func TestUnmarshalFuzzedTruncations(t *testing.T) {
	b := buildGameBundle(t)
	data := b.AppendMarshal(nil)
	for i := 0; i < len(data); i++ {
		if _, err := Unmarshal(data[:i]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", i, len(data))
		}
	}
}

// TestUnmarshalFuzzedFlips flips single bytes; decode must either fail
// or produce a bundle (possibly semantically different) without panic.
func TestUnmarshalFuzzedFlips(t *testing.T) {
	b := buildGameBundle(t)
	data := b.AppendMarshal(nil)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		mut := append([]byte{}, data...)
		mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		_, _ = Unmarshal(mut) // must not panic
	}
}

// Property: round trip over generator-produced bundles preserves
// everything, for bundles of random size.
func TestRoundTripProperty(t *testing.T) {
	cfg := gen.DefaultConfig()
	cfg.MsgsPerDay = 10000
	cfg.Users = 500
	cfg.VocabSize = 800
	cfg.EventsPerDay = 400
	g := gen.New(cfg)
	w := score.DefaultMessageWeights()

	f := func(sizeRaw uint8) bool {
		size := int(sizeRaw%20) + 1
		b := New(ID(sizeRaw) + 1)
		for i := 0; i < size; i++ {
			m := g.Next()
			b.AddScratch(w, score.NewDoc(m), nil, nil)
		}
		got, err := Unmarshal(b.AppendMarshal(nil))
		if err != nil {
			return false
		}
		if got.Size() != b.Size() || got.MemBytes() != b.MemBytes() {
			return false
		}
		return got.Validate() == nil && reflect.DeepEqual(edges(got), edges(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDecodedDatesUTC(t *testing.T) {
	b := New(1)
	loc := time.FixedZone("X", 3600)
	b.AddScratch(weights, doc(1, "a", "msg #t", base.In(loc)), nil, nil)
	got, err := Unmarshal(b.AppendMarshal(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Nodes()[0].Doc.Date() != base.UnixNano() {
		t.Error("date instant lost across time zones")
	}
}

// BenchmarkAppendMarshal encodes into one reused buffer, as the
// checkpoint and the store do.
func BenchmarkAppendMarshal(b *testing.B) {
	bn := New(1)
	cfg := gen.DefaultConfig()
	cfg.MsgsPerDay = 10000
	g := gen.New(cfg)
	w := score.DefaultMessageWeights()
	for i := 0; i < 50; i++ {
		m := g.Next()
		bn.AddScratch(w, score.NewDoc(m), nil, nil)
	}
	var buf []byte
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = bn.AppendMarshal(buf[:0])
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	bn := New(1)
	cfg := gen.DefaultConfig()
	cfg.MsgsPerDay = 10000
	g := gen.New(cfg)
	w := score.DefaultMessageWeights()
	for i := 0; i < 50; i++ {
		m := g.Next()
		bn.AddScratch(w, score.NewDoc(m), nil, nil)
	}
	data := bn.AppendMarshal(nil)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}
