package termdict

import (
	"fmt"
	"math/rand"
	"sync"
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
