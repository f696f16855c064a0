package termdict

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		Tag: "hashtag", URL: "url", Keyword: "keyword", User: "user",
	} {
		if c.String() != want {
			t.Errorf("Class(%d).String() = %q, want %q", c, c.String(), want)
		}
	}
}

// TestInternLookupTerm: IDs name (class, term) pairs — the same term in
// two classes is two IDs — and survive the hash table's growth; Lookup
// answers None for an absent term and adds nothing.
func TestInternLookupTerm(t *testing.T) {
	d := newDict()
	if id := d.lookup(Keyword, "redsox"); id != None {
		t.Fatalf("empty dictionary looked up %v", id)
	}
	if None.Index() != indexMask {
		t.Fatalf("None's index %d is not past every term's", None.Index())
	}
	if n := d.len(Keyword); n != 0 {
		t.Fatalf("Lookup added %d terms", n)
	}
	kw, tag := d.intern(Keyword, "redsox"), d.intern(Tag, "redsox")
	if kw == tag || kw.Class() != Keyword || tag.Class() != Tag || kw.Index() != 0 || tag.Index() != 0 {
		t.Fatalf("keyword %v and hashtag %v of one spelling", kw, tag)
	}
	// Enough terms to rehash several times and fill more than one page.
	ids := make([]ID, 3*pageSize)
	for i := range ids {
		ids[i] = d.intern(User, fmt.Sprintf("user%d", i))
	}
	for i, id := range ids {
		term := fmt.Sprintf("user%d", i)
		if id.Index() != uint32(i) {
			t.Fatalf("the %d-th user term has index %d: a class's terms are numbered densely from 0", i, id.Index())
		}
		if got := d.term(id); got != term {
			t.Fatalf("Term(%v) = %q, want %q", id, got, term)
		}
		if d.lookup(User, term) != id || d.lookupBytes(User, []byte(term)) != id || d.internBytes(User, []byte(term)) != id {
			t.Fatalf("%q resolves to several IDs", term)
		}
	}
	if n := d.len(User); n != len(ids) {
		t.Errorf("Len(User) = %d, want %d", n, len(ids))
	}
	if d.term(kw) != "redsox" || d.lookup(URL, "redsox") != None {
		t.Error("classes leak into each other")
	}
	if b := d.size(); b < int64(len(ids))*16 {
		t.Errorf("Bytes = %d for %d terms", b, len(ids))
	}
}

// TestInternDetachesTerm: the dictionary keeps a copy, not the slice of
// the text the term came from.
func TestInternDetachesTerm(t *testing.T) {
	d := newDict()
	buf := []byte("lester")
	id := d.internBytes(Keyword, buf)
	copy(buf, "xxxxxx")
	if got := d.term(id); got != "lester" {
		t.Errorf("Term = %q after the caller's buffer changed", got)
	}
}

// TestHitPathZeroAlloc pins the lookups prepare and the readers run at
// zero allocations once the term is held.
func TestHitPathZeroAlloc(t *testing.T) {
	d := newDict()
	id := d.intern(Keyword, "ovation")
	b := []byte("ovation")
	for name, fn := range map[string]func(){
		"intern":      func() { d.intern(Keyword, "ovation") },
		"internBytes": func() { d.internBytes(Keyword, b) },
		"lookup":      func() { d.lookup(Keyword, "ovation") },
		"lookupBytes": func() { d.lookupBytes(Keyword, b) },
		"term":        func() { _ = d.term(id) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocates %.1f times on a hit, want 0", name, n)
		}
	}
}

// TestConcurrentInternAndTerm is the prepare/reader contract under
// -race: goroutines intern overlapping vocabularies (so inserts race on
// the same terms and grow the table and its pages) while readers call
// Term on the IDs handed to them and Lookup on terms being inserted.
func TestConcurrentInternAndTerm(t *testing.T) {
	d := newDict()
	const writers, readers, perWriter = 4, 4, 5000
	type pair struct {
		id   ID
		term string
	}
	ch := make(chan pair, 256)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWriter; i++ {
				term := fmt.Sprintf("w%d", rng.Intn(2*perWriter))
				ch <- pair{d.internBytes(Keyword, []byte(term)), term}
			}
		}(int64(w))
	}
	go func() { wg.Wait(); close(ch) }()
	var rg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for p := range ch {
				if got := d.term(p.id); got != p.term {
					errs <- fmt.Errorf("Term(%v) = %q, want %q", p.id, got, p.term)
					return
				}
				if id := d.lookup(Keyword, p.term); id != p.id {
					errs <- fmt.Errorf("Lookup(%q) = %v, Intern gave %v", p.term, id, p.id)
					return
				}
			}
		}()
	}
	rg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := d.len(Keyword); n > 2*perWriter {
		t.Errorf("%d terms from a vocabulary of %d: a term was added twice", n, 2*perWriter)
	}
}

// TestColumn: Reach grows a column across a page boundary, the entries
// it skipped read as zero, a page never moves, Bytes counts whole pages
// and the directory, and reads past the end find nothing and grow
// nothing.
func TestColumn(t *testing.T) {
	var c Column[int64]
	if c.Len() != 0 || c.Bytes() != 0 || c.At(0) != nil {
		t.Fatalf("zero column: Len %d, Bytes %d, At(0) %v", c.Len(), c.Bytes(), c.At(0))
	}
	*c.Reach(5) = 6
	first := c.At(5)
	if c.Len() != 6 || first == nil || *first != 6 {
		t.Fatalf("after Reach(5): Len %d, At(5) %v", c.Len(), first)
	}
	onePage := c.Bytes()
	if want := int64(pageSize*8 + 8); onePage != want {
		t.Errorf("Bytes = %d for one page of int64, want %d", onePage, want)
	}
	end := pageSize + 3
	*c.Reach(end) = 7
	if c.Len() != end+1 {
		t.Fatalf("Len = %d after Reach(%d)", c.Len(), end)
	}
	for i := 0; i < end; i++ {
		want := int64(0) // skipped entries read zero
		if i == 5 {
			want = 6
		}
		if got := *c.At(i); got != want {
			t.Fatalf("At(%d) = %d, want %d", i, got, want)
		}
	}
	if c.At(5) != first {
		t.Error("entry 5 moved when the column grew a page")
	}
	if want := int64(2*pageSize*8 + 2*8); c.Bytes() != want {
		t.Errorf("Bytes = %d for two pages of int64, want %d", c.Bytes(), want)
	}
	n, b := c.Len(), c.Bytes()
	for _, i := range []int{end + 1, 2*pageSize - 1, 2 * pageSize, int(None.Index()), -1} {
		if p := c.At(i); p != nil {
			t.Errorf("At(%d) = %v past the end of %d entries", i, *p, n)
		}
	}
	if c.Len() != n || c.Bytes() != b {
		t.Errorf("reads past the end moved Len %d → %d, Bytes %d → %d", n, c.Len(), b, c.Bytes())
	}
}

// TestConcurrentColumnReach is the Term contract on the column alone,
// under -race: readers read every entry the writer has published while
// the writer's Reach adds pages and replaces the directory.
func TestConcurrentColumnReach(t *testing.T) {
	const n, readers = 16 * pageSize, 4
	var (
		c         Column[uint32]
		published atomic.Int64 // entries written: a reader may read below it
		wg        sync.WaitGroup
	)
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				p := int(published.Load())
				if p > 0 {
					i := rng.Intn(p)
					if e := c.At(i); e == nil || *e != uint32(i)+1 {
						errs <- fmt.Errorf("At(%d) = %v with %d entries published", i, e, p)
						return
					}
					if c.Len() < p || c.Bytes() < int64(p)*4 {
						errs <- fmt.Errorf("Len %d, Bytes %d with %d entries published", c.Len(), c.Bytes(), p)
						return
					}
				}
				if p == n {
					return
				}
			}
		}(int64(r))
	}
	for i := 0; i < n; i++ {
		*c.Reach(i) = uint32(i) + 1
		published.Store(int64(i) + 1)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// FuzzDict: for any term and class, the ID round-trips to the term and
// keeps the class, every resolve path agrees on it, the same spelling
// in another class is another ID, and Lookup never adds a term.
func FuzzDict(f *testing.F) {
	f.Add(uint8(0), "redsox")
	f.Add(uint8(1), "bit.ly/x")
	f.Add(uint8(3), "")
	f.Add(uint8(2), "\xff\x00 mixed")
	d := newDict()
	f.Fuzz(func(t *testing.T, class uint8, term string) {
		c := Class(class % uint8(NumClasses))
		held := d.len(c)
		before := d.lookup(c, term)
		if d.len(c) != held {
			t.Fatalf("Lookup(%s, %q) added a term", c, term)
		}
		id := d.intern(c, term)
		switch {
		case id.Class() != c:
			t.Fatalf("Intern(%s, %q) = %v in class %s", c, term, id, id.Class())
		case d.term(id) != term:
			t.Fatalf("Term(Intern(%s, %q)) = %q", c, term, d.term(id))
		case before != None && before != id:
			t.Fatalf("Lookup gave %v, Intern %v", before, id)
		case before == None && d.len(c) != held+1, before != None && d.len(c) != held:
			t.Fatalf("Len %d → %d for a term looked up as %v", held, d.len(c), before)
		case d.lookup(c, term) != id, d.lookupBytes(c, []byte(term)) != id, d.internBytes(c, []byte(term)) != id:
			t.Fatalf("%s %q resolves to several IDs", c, term)
		}
		other := (c + 1) % NumClasses
		if oid := d.intern(other, term); oid == id || oid.Class() != other || d.term(oid) != term {
			t.Fatalf("%q in %s is %v, in %s %v", term, c, id, other, oid)
		}
	})
}
