package score

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
	"weak"

	"provex/internal/termdict"
	"provex/internal/tweet"
)

var base = time.Date(2009, 9, 26, 0, 0, 0, 0, time.UTC)

func doc(id tweet.ID, user, text string, at time.Time) Doc {
	m := tweet.Parse(id, user, at, text)
	return NewDoc(m)
}

func TestClassifyTableII(t *testing.T) {
	a := doc(1, "amaliebenjamin", "Lester getting an ovation #redsox http://bit.ly/x", base)
	tests := []struct {
		name string
		b    Doc
		want ConnectionType
	}{
		{"rt", doc(2, "abcdude", "Classy RT @AmalieBenjamin: Lester getting an ovation", base.Add(time.Minute)), ConnRT},
		{"url", doc(3, "u3", "check http://bit.ly/x now", base.Add(time.Minute)), ConnURL},
		{"hashtag", doc(4, "u4", "sigh #redsox", base.Add(time.Minute)), ConnHashtag},
		{"text", doc(5, "u5", "what an ovation moment", base.Add(time.Minute)), ConnText},
		{"none", doc(6, "u6", "totally unrelated chatter", base.Add(time.Minute)), ConnNone},
	}
	for _, tc := range tests {
		if got := Classify(a, tc.b); got != tc.want {
			t.Errorf("%s: Classify = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestClassifyPriority(t *testing.T) {
	a := doc(1, "src", "original #tag http://bit.ly/z words here", base)
	// b re-shares AND shares url/tag/text: RT must win.
	b := doc(2, "u", "wow RT @src: original #tag http://bit.ly/z words here", base.Add(time.Minute))
	if got := Classify(a, b); got != ConnRT {
		t.Errorf("Classify = %v, want ConnRT (strongest wins)", got)
	}
}

func TestConnectionTypeString(t *testing.T) {
	want := map[ConnectionType]string{
		ConnNone: "none", ConnText: "text", ConnHashtag: "hashtag",
		ConnURL: "url", ConnRT: "rt",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("String(%d) = %q, want %q", c, c.String(), s)
		}
	}
}

func TestOverlap(t *testing.T) {
	tests := []struct {
		a, b []termdict.ID
		want int
	}{
		{nil, nil, 0},
		{[]termdict.ID{1}, nil, 0},
		{[]termdict.ID{1, 2}, []termdict.ID{2, 3}, 1},
		{[]termdict.ID{1, 2}, []termdict.ID{1, 2}, 2},
		{[]termdict.ID{1, 1}, []termdict.ID{1}, 2}, // caller guarantees dedup; raw count documented
	}
	for _, tc := range tests {
		if got := overlap(tc.a, tc.b); got != tc.want {
			t.Errorf("overlap(%v,%v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestEquation2URL(t *testing.T) {
	a := doc(1, "u1", "first http://bit.ly/x http://ow.ly/y", base)
	b := doc(2, "u2", "second http://bit.ly/x", base.Add(time.Hour))
	if got := U(a, b); got != 1.0 {
		t.Errorf("U = %v, want 1.0 (all of later's URLs shared)", got)
	}
	if got := U(b, a); got != 0.5 {
		t.Errorf("U reversed = %v, want 0.5", got)
	}
	c := doc(3, "u3", "no urls", base)
	if got := U(a, c); got != 0 {
		t.Errorf("U with no URLs = %v, want 0", got)
	}
}

func TestEquation3Hashtag(t *testing.T) {
	a := doc(1, "u1", "#redsox #yankees game", base)
	b := doc(2, "u2", "#redsox night", base.Add(time.Hour))
	if got := H(a, b); got != 1.0 {
		t.Errorf("H = %v, want 1.0", got)
	}
	if got := H(b, a); got != 0.5 {
		t.Errorf("H reversed = %v, want 0.5", got)
	}
}

func TestEquation4Time(t *testing.T) {
	a := doc(1, "u1", "x", base)
	b := doc(2, "u2", "y", base.Add(time.Hour))
	if got := T(a.Msg, b.Msg); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("T one hour apart = %v, want 0.5", got)
	}
	if got := T(a.Msg, a.Msg); got != 1.0 {
		t.Errorf("T same instant = %v, want 1.0", got)
	}
	// Symmetric in argument order.
	if T(a.Msg, b.Msg) != T(b.Msg, a.Msg) {
		t.Error("T not symmetric")
	}
}

func TestEquation5MessageSim(t *testing.T) {
	w := DefaultMessageWeights()
	a := doc(1, "src", "lester ovation #redsox http://bit.ly/x", base)
	rt := doc(2, "fan", "classy RT @src: lester ovation #redsox http://bit.ly/x", base.Add(time.Minute))
	unrelated := doc(3, "other", "totally different topic", base.Add(time.Minute))
	sRT := MessageSim(w, a, rt).Total
	sUn := MessageSim(w, a, unrelated).Total
	if sRT <= sUn {
		t.Errorf("RT sim %v not above unrelated sim %v", sRT, sUn)
	}
	if sRT < w.RT {
		t.Errorf("RT sim %v below RT bonus %v", sRT, w.RT)
	}
	// Freshness monotonicity: same content, later copy scores lower.
	near := doc(4, "u", "lester ovation #redsox", base.Add(time.Minute))
	far := doc(5, "u", "lester ovation #redsox", base.Add(48*time.Hour))
	if MessageSim(w, a, near).Total <= MessageSim(w, a, far).Total {
		t.Error("nearer message should score higher than older twin")
	}
}

// fakeBundle implements BundleStats for Eq. 1 tests.
type fakeBundle struct {
	tags, urls, kws map[string]int
	users           map[string]bool
	last            time.Time
}

func (f *fakeBundle) Count(t termdict.ID) int {
	s := termdict.Term(t)
	switch t.Class() {
	case termdict.Tag:
		return f.tags[s]
	case termdict.URL:
		return f.urls[s]
	case termdict.Keyword:
		return f.kws[s]
	default:
		if f.users[s] {
			return 1
		}
		return 0
	}
}
func (f *fakeBundle) LastDate() int64 { return f.last.UnixNano() }

func TestEquation1BundleSim(t *testing.T) {
	w := DefaultBundleWeights()
	b := &fakeBundle{
		tags:  map[string]int{"redsox": 5, "yankees": 2},
		urls:  map[string]int{"bit.ly/x": 1},
		kws:   map[string]int{"lester": 4, "game": 9},
		users: map[string]bool{"amaliebenjamin": true},
		last:  base,
	}
	match := doc(1, "u", "lester hurt #redsox http://bit.ly/x", base.Add(time.Minute))
	s := BundleSim(w, match, b).Total
	if s < w.URL+w.Tag+w.Keyword {
		t.Errorf("matching message scored %v, want >= %v", s, w.URL+w.Tag+w.Keyword)
	}
	if s < w.Threshold {
		t.Errorf("clear match %v under threshold %v", s, w.Threshold)
	}

	miss := doc(2, "u", "nothing in common whatsoever", base.Add(time.Minute))
	if got := BundleSim(w, miss, b).Total; got != 0 {
		t.Errorf("unrelated message scored %v, want 0 (no freshness without overlap)", got)
	}

	rt := doc(3, "u", "so true RT @AmalieBenjamin: lester ovation", base.Add(time.Minute))
	if got := BundleSim(w, rt, b).Total; got < w.RT {
		t.Errorf("RT-into-bundle scored %v, want >= RT bonus %v", got, w.RT)
	}
}

func TestEquation1FreshnessTiebreak(t *testing.T) {
	w := DefaultBundleWeights()
	msg := doc(1, "u", "game on #redsox", base.Add(time.Hour))
	fresh := &fakeBundle{tags: map[string]int{"redsox": 1}, last: base.Add(55 * time.Minute)}
	stale := &fakeBundle{tags: map[string]int{"redsox": 1}, last: base.Add(-72 * time.Hour)}
	if BundleSim(w, msg, fresh).Total <= BundleSim(w, msg, stale).Total {
		t.Error("under equal overlap, fresher bundle must score higher (paper's stated intuition)")
	}
}

func TestEquation6EvictionRank(t *testing.T) {
	curr := base.Add(24 * time.Hour).UnixNano()
	oldSmall := EvictionRank(curr, base.UnixNano(), 1)
	oldBig := EvictionRank(curr, base.UnixNano(), 1000)
	freshSmall := EvictionRank(curr, base.Add(23*time.Hour).UnixNano(), 1)
	if oldSmall <= oldBig {
		t.Error("smaller bundle of equal age must rank higher for eviction")
	}
	if oldSmall <= freshSmall {
		t.Error("older bundle of equal size must rank higher for eviction")
	}
	if got := EvictionRank(curr, base.UnixNano(), 0); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("size 0 produced %v", got)
	}
}

// TestDateGapsSaturate: dates are unix nanoseconds, and the stream's
// extreme years, 1678 and 2262, lie further apart than an int64 of
// nanoseconds reaches, so a raw difference wraps. Eq. 1's freshness,
// Eq. 4's T and Eq. 6's rank must read such a pair as time.Time.Sub
// does — saturated — bit for bit, in both directions.
func TestDateGapsSaturate(t *testing.T) {
	early := time.Date(1678, 1, 1, 0, 0, 0, 0, time.UTC)
	late := time.Date(2262, 4, 11, 0, 0, 0, 0, time.UTC)
	if d := late.UnixNano() - early.UnixNano(); d > 0 {
		t.Fatalf("the pair's raw difference %d does not wrap", d)
	}
	hours := func(a, b time.Time) float64 {
		gap := a.Sub(b)
		if gap < 0 {
			gap = -gap
		}
		return gap.Hours()
	}
	w := DefaultBundleWeights()
	for _, c := range []struct{ msg, last time.Time }{{late, early}, {early, late}, {late, late}} {
		d := doc(1, "u", "game on #redsox", c.msg)
		b := &fakeBundle{tags: map[string]int{"redsox": 1}, last: c.last}
		if got, want := BundleSim(w, d, b).Freshness, w.Time/(hours(c.msg, c.last)+1); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("Eq. 1 freshness %v .. %v = %v, want %v", c.msg, c.last, got, want)
		}
		e := doc(2, "v", "game on #redsox", c.last)
		if got, want := T(d.Msg, e.Msg), 1/(hours(c.msg, c.last)+1); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("Eq. 4 T %v .. %v = %v, want %v", c.msg, c.last, got, want)
		}
		if got, want := EvictionRank(c.msg.UnixNano(), c.last.UnixNano(), 3), c.msg.Sub(c.last).Hours()+1.0/3; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("Eq. 6 rank %v .. %v = %v, want %v", c.msg, c.last, got, want)
		}
	}
}

// Property: MessageSim is non-negative and finite for arbitrary
// well-formed inputs, and adding the RT relation never lowers it.
func TestMessageSimProperty(t *testing.T) {
	w := DefaultMessageWeights()
	f := func(textA, textB string, minutes uint16) bool {
		a := doc(1, "alice", "seed "+textA, base)
		b := doc(2, "bob", "seed "+textB, base.Add(time.Duration(minutes)*time.Minute))
		s := MessageSim(w, a, b).Total
		if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return false
		}
		brt := doc(3, "bob", "RT @alice: seed "+textB, b.Msg.Time())
		return MessageSim(w, a, brt).Total >= w.RT
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: BundleSim of a message against an empty bundle is zero.
func TestBundleSimEmptyProperty(t *testing.T) {
	w := DefaultBundleWeights()
	empty := &fakeBundle{last: base}
	f := func(text string) bool {
		m := tweet.Parse(1, "u", base, "x "+text)
		m.RTOf = "" // ensure no RT path
		return BundleSim(w, NewDoc(m), empty).Total == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestNewDocAllocations: prepare runs once per ingested message, and
// once the dictionary holds the message's terms it allocates only what
// the engine keeps — the message's record, raw fields and exact-fit
// term list in one piece; the list is built in stack scratch, and so is
// the coded text (TestMain trained the table: the figure is the steady
// state's).
func TestNewDocAllocations(t *testing.T) {
	m := tweet.Parse(1, "abcdude", base, "Classy RT @AmalieBenjamin: Lester getting an ovation #Yankee #redsox http://bit.ly/Uvcpr")
	d := NewDoc(m)
	if terms := d.Terms(); len(terms) != cap(terms) {
		t.Errorf("Terms: %d IDs in %d slots, want an exact fit", len(terms), cap(terms))
	}
	if n := testing.AllocsPerRun(100, func() { NewDoc(m) }); n != 1 {
		t.Errorf("NewDoc allocates %.0f times, want 1", n)
	}
	if u, ok := d.RTUser(); !ok || termdict.Term(u) != "amaliebenjamin" || termdict.Term(d.User()) != "abcdude" {
		t.Errorf("RTUser/User = %q/%q", termdict.Term(u), termdict.Term(d.User()))
	}
	if tags, urls, keywords := d.Runs(); len(tags)+len(urls)+len(keywords)+2 != len(d.Terms()) {
		t.Errorf("the runs cover %d of %d IDs", len(tags)+len(urls)+len(keywords)+2, len(d.Terms()))
	}
}

// TestRecordSizes pins the per-message layout: a Doc is one pointer, and
// the record's fixed header is 24 bytes (id, date, term count, stored
// text length with its coded bit) ahead of the term list and the text.
func TestRecordSizes(t *testing.T) {
	if got := unsafe.Sizeof(Doc{}); got != 8 {
		t.Errorf("unsafe.Sizeof(Doc{}) = %d, want 8", got)
	}
	if headerSize != 24 {
		t.Errorf("record header is %d bytes, want 24", headerSize)
	}
}

// TestDocOwnsItsBytes: a message's text may be a substring of a large
// buffer — a decoded JSON line, a WAL segment. The record copies it, so
// a Doc must not keep that buffer alive.
func TestDocOwnsItsBytes(t *testing.T) {
	big := strings.Repeat("tsunami warning #samoa ", 1<<15)
	w := weak.Make(unsafe.StringData(big))
	text := big[23*100 : 23*103]
	d := NewDoc(tweet.Parse(7, "user", base, text))
	want := strings.Repeat("tsunami warning #samoa ", 3)
	big, text = "", ""
	runtime.GC()
	if w.Value() != nil {
		t.Error("the buffer the text was cut from survives a forced GC: the Doc pins it")
	}
	if d.Text() != want || d.ID() != 7 || termdict.Term(d.User()) != "user" {
		t.Errorf("Doc reads %d %q %q", d.ID(), termdict.Term(d.User()), d.Text())
	}
	runtime.KeepAlive(d)
}
