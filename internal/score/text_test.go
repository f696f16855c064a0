package score

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"testing"

	"provex/internal/fsst"
	"provex/internal/gen"
	"provex/internal/termdict"
	"provex/internal/tweet"
)

// TestMain trains the process's table before any test runs, on the
// generated stream's first texts, as a node's would be, so that which
// test runs first decides nothing: every record NewDoc builds here is in
// the steady state's form, coded where the table shortens its text. The
// untrained path is TestTextTableTrainsOnce's, on a coder of its own,
// and newMsg builds a raw record when handed no table.
func TestMain(m *testing.M) {
	g := gen.New(gen.DefaultConfig())
	for textCode.table.Load() == nil {
		textCode.observe(g.Next().Text)
	}
	os.Exit(m.Run())
}

// trainedTable is the process's table, which TestMain trained.
func trainedTable() *fsst.Table { return textCode.table.Load() }

// recordForms builds m's record twice: with its text raw, as before the
// table is trained, and coded by the trained table.
func recordForms(m *tweet.Message) (asRaw, asCoded *Msg) {
	d := NewDoc(m)
	return newMsg(m.ID, m.Date, d.Terms(), m.Text, nil), newMsg(m.ID, m.Date, d.Terms(), m.Text, trainedTable())
}

// checkText: a record reads its text back whole through Text, TextLen
// and AppendRaw, which writes the bytes tweet.AppendRaw writes for the
// message, after what the buffer held.
func checkText(t *testing.T, form string, r *Msg, m *tweet.Message) {
	t.Helper()
	if got := r.Text(); got != m.Text {
		t.Fatalf("%s record: Text = %q, want %q", form, got, m.Text)
	}
	if got := r.TextLen(); got != len(m.Text) {
		t.Fatalf("%s record of %q: TextLen = %d, want %d", form, m.Text, got, len(m.Text))
	}
	want := tweet.AppendRaw([]byte("kept"), m.ID, m.Date, m.User, m.Text)
	if got := r.AppendRaw([]byte("kept")); !bytes.Equal(got, want) {
		t.Fatalf("%s record of %q: AppendRaw = %x, want %x", form, m.Text, got, want)
	}
}

// TestRecordTextForms: a record holds its text raw or coded — coded
// once the table is trained and the coded form is shorter — and reads
// the same either way. A coded text is shorter in the record; Text
// decodes it in one allocation, AppendRaw into the caller's buffer with
// none, and TextLen measures it with none.
func TestRecordTextForms(t *testing.T) {
	m := tweet.Parse(1, "abcdude", base, "Classy RT @AmalieBenjamin: Lester getting an ovation #Yankee #redsox http://bit.ly/Uvcpr")
	asRaw, asCoded := recordForms(m)
	if asRaw.text&coded != 0 || asRaw.text != uint32(len(m.Text)) {
		t.Fatalf("raw record: text field %#x, want %d", asRaw.text, len(m.Text))
	}
	if asCoded.text&coded == 0 || len(asCoded.storedText()) >= len(m.Text) {
		t.Fatalf("coded record: text field %#x for a %d-byte text", asCoded.text, len(m.Text))
	}
	checkText(t, "raw", asRaw, m)
	checkText(t, "coded", asCoded, m)
	buf := make([]byte, 0, 256)
	for _, c := range []struct {
		name string
		f    func()
		want float64
	}{
		{"Text of a coded record", func() { _ = asCoded.Text() }, 1},
		{"Text of a raw record", func() { _ = asRaw.Text() }, 0},
		{"AppendRaw of a coded record", func() { buf = asCoded.AppendRaw(buf[:0]) }, 0},
		{"TextLen of a coded record", func() { _ = asCoded.TextLen() }, 0},
	} {
		if n := testing.AllocsPerRun(100, c.f); n != c.want {
			t.Errorf("%s allocates %.0f times, want %.0f", c.name, n, c.want)
		}
	}
	// A text that coding would not shorten stays raw.
	if r := newMsg(2, 0, []termdict.ID{termdict.Intern(termdict.User, "u")}, "\xfe\xfd\xfc", trainedTable()); r.text&coded != 0 {
		t.Errorf("a 3-byte text of no symbol is held coded (%#x)", r.text)
	}
}

// TestTextTableTrainsOnce: many goroutines building records at once
// while the sample fills see no table, then one: training runs once,
// on the goroutine that completes the sample, and publishes a table
// every goroutine then reads; the sample is released.
func TestTextTableTrainsOnce(t *testing.T) {
	var c textCoder
	text := strings.Repeat("warning #samoa ", 10)
	var wg sync.WaitGroup
	tables := make([]map[*fsst.Table]bool, 8)
	for g := range tables {
		tables[g] = map[*fsst.Table]bool{}
		wg.Add(1)
		go func(seen map[*fsst.Table]bool) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				seen[c.tableFor(text)] = true
			}
		}(tables[g])
	}
	wg.Wait()
	last := c.table.Load()
	if last == nil {
		t.Fatal("8 000 texts of 150 bytes trained no table")
	}
	for _, seen := range tables {
		for tab := range seen {
			if tab != nil && tab != last {
				t.Fatal("two tables were published")
			}
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.done || c.sample != nil {
		t.Errorf("after training: done %v, sample of %d bytes kept", c.done, len(c.sample))
	}
}
