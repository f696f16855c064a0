package gen

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"provex/internal/tweet"
)

// smallConfig keeps unit-test runs fast while preserving the stream's
// structural properties.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.MsgsPerDay = 20000
	cfg.Users = 2000
	cfg.VocabSize = 1500
	cfg.EventsPerDay = 600
	return cfg
}

func TestGeneratorDeterminism(t *testing.T) {
	a := New(smallConfig()).Generate(2000)
	b := New(smallConfig()).Generate(2000)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("message %d differs:\n  %+v\n  %+v", i, a[i], b[i])
		}
	}
}

func TestGeneratorSeedSensitivity(t *testing.T) {
	cfg2 := smallConfig()
	cfg2.Seed = 99
	a := New(smallConfig()).Generate(100)
	b := New(cfg2).Generate(100)
	same := 0
	for i := range a {
		if a[i].Text == b[i].Text {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical streams")
	}
}

func TestGeneratorTemporalOrder(t *testing.T) {
	g := New(smallConfig())
	var prev int64
	var prevID tweet.ID
	for i := 0; i < 5000; i++ {
		m := g.Next()
		if m.Date < prev {
			t.Fatalf("message %d out of order: %v < %v", i, m.Date, prev)
		}
		if m.ID <= prevID {
			t.Fatalf("message %d ID not increasing: %d <= %d", i, m.ID, prevID)
		}
		prev, prevID = m.Date, m.ID
	}
}

func TestGeneratorValidMessages(t *testing.T) {
	g := New(smallConfig())
	for i := 0; i < 5000; i++ {
		m := g.Next()
		if err := m.Validate(); err != nil {
			t.Fatalf("message %d invalid: %v\n%+v", i, err, m)
		}
		if len(m.Text) > tweet.MaxTextLen {
			t.Fatalf("message %d exceeds %d chars: %q", i, tweet.MaxTextLen, m.Text)
		}
	}
}

// TestGeneratorStreamShape checks the macro statistics the provenance
// index relies on (DESIGN.md S3): a meaningful share of messages carry
// hashtags, RTs exist, URLs circulate, noise is present and is short
// fragments, and topics are carried by hashtags and links that recur
// across messages — a Table II connection needs a second message.
func TestGeneratorStreamShape(t *testing.T) {
	g := New(smallConfig())
	const n = 20000
	var withTag, withURL, rts, bare, fragments, bareLen, restLen int
	tags, urls := map[string]int{}, map[string]int{}
	for i := 0; i < n; i++ {
		m := g.Next()
		switch {
		case m.IsRT():
			rts++
		case len(m.Hashtags) > 0:
			withTag++
		default:
			bare++
		}
		if len(m.URLs) > 0 {
			withURL++
		}
		if len(m.Hashtags) == 0 && len(m.URLs) == 0 && !m.IsRT() {
			fragments++
			bareLen += len(m.Text)
		} else {
			restLen += len(m.Text)
		}
		for _, h := range m.Hashtags {
			tags[h]++
		}
		for _, u := range m.URLs {
			urls[u]++
		}
	}
	recurring := func(counts map[string]int) float64 {
		r := 0
		for _, c := range counts {
			if c > 1 {
				r++
			}
		}
		return float64(r) / float64(len(counts))
	}
	if r := recurring(tags); r < 0.5 {
		t.Errorf("only %.0f%% of %d hashtags recur in a second message", 100*r, len(tags))
	}
	if r := recurring(urls); r < 0.25 {
		t.Errorf("only %.0f%% of %d URLs recur in a second message", 100*r, len(urls))
	}
	noise, rest := float64(bareLen)/float64(fragments), float64(restLen)/float64(n-fragments)
	if noise > rest/2 {
		t.Errorf("noise is not short fragments: %.1f bytes a message against %.1f", noise, rest)
	}
	if withTag < n/5 {
		t.Errorf("only %d/%d original messages carry hashtags", withTag, n)
	}
	if rts < n/50 {
		t.Errorf("only %d/%d messages are re-shares", rts, n)
	}
	if withURL < n/50 {
		t.Errorf("only %d/%d messages carry URLs", withURL, n)
	}
	if bare < n/20 {
		t.Errorf("only %d/%d messages are noise", bare, n)
	}
}

// TestGeneratorRTConsistency verifies every generated re-share names a
// user that actually posted earlier in the stream.
func TestGeneratorRTConsistency(t *testing.T) {
	g := New(smallConfig())
	seen := map[string]bool{}
	for i := 0; i < 10000; i++ {
		m := g.Next()
		if m.IsRT() && !seen[m.RTOf] {
			t.Fatalf("message %d re-shares unseen user %q: %s", i, m.RTOf, m)
		}
		seen[m.User] = true
	}
}

func TestGeneratorArrivalRate(t *testing.T) {
	cfg := smallConfig()
	g := New(cfg)
	const n = 20000
	ms := g.Generate(n)
	span := tweet.Sub(ms[n-1].Date, ms[0].Date)
	gotPerDay := float64(n) / (span.Hours() / 24)
	ratio := gotPerDay / float64(cfg.MsgsPerDay)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("arrival rate %0.f msgs/day, want ~%d (ratio %.2f)", gotPerDay, cfg.MsgsPerDay, ratio)
	}
}

func TestGeneratorUserSkew(t *testing.T) {
	g := New(smallConfig())
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[g.Next().User]++
	}
	per := make([]int, 0, len(counts))
	for _, c := range counts {
		per = append(per, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(per)))
	mean := float64(n) / float64(len(counts))
	if float64(per[0]) < 5*mean {
		t.Errorf("user activity not heavy-tailed: max %d vs mean %.1f over %d users", per[0], mean, len(counts))
	}
	top, posts := max(len(per)/100, 1), 0
	for _, c := range per[:top] {
		posts += c
	}
	if share := float64(posts) / n; share < 0.25 {
		t.Errorf("the top 1%% of users (%d) post %.0f%% of messages, want a quarter or more", top, 100*share)
	}
}

func TestScriptedEvents(t *testing.T) {
	cfg := smallConfig()
	cfg.Scripts = []EventScript{{
		Name:     "samoa tsunami",
		Hashtags: []string{"tsunami", "samoa"},
		Topic:    []string{"tsunami", "warning", "samoa", "quake", "rescue"},
		URLs:     2,
		Start:    time.Hour,
		HalfLife: 3 * time.Hour,
		Weight:   40,
	}}
	g := New(cfg)
	found := 0
	for i := 0; i < 30000; i++ {
		m := g.Next()
		for _, h := range m.Hashtags {
			if h == "tsunami" || h == "samoa" {
				found++
			}
		}
	}
	if found < 50 {
		t.Errorf("scripted event surfaced in only %d hashtag occurrences", found)
	}
}

func TestEventIntensityDecay(t *testing.T) {
	birth := time.Date(2009, 9, 1, 0, 0, 0, 0, time.UTC)
	ev := &event{birth: birth, halfLife: time.Hour, weight: 8}
	if got := ev.intensity(birth.Add(-time.Minute)); got != 0 {
		t.Errorf("pre-birth intensity = %v, want 0", got)
	}
	if got := ev.intensity(birth.Add(5 * time.Minute)); got != 8 {
		t.Errorf("burst intensity = %v, want 8", got)
	}
	early := ev.intensity(birth.Add(30 * time.Minute))
	late := ev.intensity(birth.Add(10 * time.Hour))
	if late >= early {
		t.Errorf("intensity did not decay: %v then %v", early, late)
	}
	if !ev.dead(birth.Add(48 * time.Hour)) {
		t.Error("event should be dead after 48 half-lives")
	}
}

func TestClampText(t *testing.T) {
	long := ""
	for i := 0; i < 40; i++ {
		long += "word "
	}
	got := clampText(long)
	if len(got) > tweet.MaxTextLen {
		t.Fatalf("clamped text still %d chars", len(got))
	}
	if got[len(got)-1] == ' ' || got[:4] != "word" {
		t.Fatalf("clamp mangled text: %q", got)
	}
	if clampText("short") != "short" {
		t.Error("short text altered")
	}
}

func TestBase36(t *testing.T) {
	tests := []struct {
		n    uint64
		want string
	}{{0, "0"}, {35, "z"}, {36, "10"}, {1295, "zz"}}
	for _, tc := range tests {
		if got := base36(tc.n); got != tc.want {
			t.Errorf("base36(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
}

func BenchmarkGeneratorNext(b *testing.B) {
	g := New(smallConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}
