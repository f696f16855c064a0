package bundle

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"provex/internal/gen"
	"provex/internal/score"
)

func TestMarshalRoundTrip(t *testing.T) {
	b := buildGameBundle(t)
	b.Close()
	data := b.Marshal()
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
	got, err := Unmarshal(b.Marshal())
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
		if g.Parent != w.Parent || g.Score != w.Score || g.Conn != w.Conn {
			t.Fatalf("node %d edge differs: %+v vs %+v", i, g, w)
		}
		if !reflect.DeepEqual(g.Doc.Msg, w.Doc.Msg) {
			t.Fatalf("node %d message differs:\n  %+v\n  %+v", i, g.Doc.Msg, w.Doc.Msg)
		}
		if !reflect.DeepEqual(g.Doc.Terms, w.Doc.Terms) {
			t.Fatalf("node %d terms differ: %v vs %v", i, g.Doc.Terms, w.Doc.Terms)
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
// threshold and at it.
func TestRoundTripKeepsRepresentation(t *testing.T) {
	for _, n := range []int{1, PruneMinNodes - 1, PruneMinNodes, PruneMinNodes + 1, 200} {
		b := buildSized(n)
		got, err := Unmarshal(b.Marshal())
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
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	b := buildGameBundle(t)
	data := b.Marshal()

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

// TestUnmarshalFuzzedTruncations chops the encoding at every byte
// offset; decode must fail cleanly (never panic) on all of them.
func TestUnmarshalFuzzedTruncations(t *testing.T) {
	b := buildGameBundle(t)
	data := b.Marshal()
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
	data := b.Marshal()
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
			b.Add(w, score.NewDoc(m))
		}
		got, err := Unmarshal(b.Marshal())
		if err != nil {
			return false
		}
		if got.Size() != b.Size() || got.MemBytes() != b.MemBytes() {
			return false
		}
		return got.Validate() == nil && reflect.DeepEqual(got.Edges(), b.Edges())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDecodedDatesUTC(t *testing.T) {
	b := New(1)
	loc := time.FixedZone("X", 3600)
	b.Add(weights, doc(1, "a", "msg #t", base.In(loc)))
	got, err := Unmarshal(b.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Nodes()[0].Doc.Msg.Date != base.UnixNano() {
		t.Error("date instant lost across time zones")
	}
}

func BenchmarkMarshal(b *testing.B) {
	bn := New(1)
	cfg := gen.DefaultConfig()
	cfg.MsgsPerDay = 10000
	g := gen.New(cfg)
	w := score.DefaultMessageWeights()
	for i := 0; i < 50; i++ {
		m := g.Next()
		bn.Add(w, score.NewDoc(m))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bn.Marshal()
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
		bn.Add(w, score.NewDoc(m))
	}
	data := bn.Marshal()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}
