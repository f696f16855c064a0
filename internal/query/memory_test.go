package query

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"
	"unsafe"
	"weak"

	"provex/internal/bundle"
	"provex/internal/core"
	"provex/internal/gen"
	"provex/internal/score"
	"provex/internal/stream"
	"provex/internal/tweet"
)

// TestLiveHeapPerMessage is the memory budget of the serving shape: an
// unbounded engine behind a Processor (message index included) may
// keep this many reachable bytes per ingested message on the paper's
// crawl shape. The figure is HeapAlloc after a forced collection, which
// is what the process's peak RSS follows at about 2× (the GC goal).
//
// History, B/msg: 1 884 with eight maps per bundle; 1 194 when bundles
// below PruneMinNodes got the row-table summary; 980 when the message
// index became ordinals, byte-coded postings in slabs and a term table
// of its own, and keyword slices were cut to fit; 811 when every
// indicant became a term-dictionary ID (4-byte list entries, 8-byte
// summary rows, ID-keyed maps) and the message struct 128 bytes; 760
// when a summary-index posting became a bare bundle ID (no count, no
// recycled slabs). Those were read with the generator feeding the
// engine directly, which counted its re-share reservoir too; decoded
// from JSONL the same build reads 686. 562 when the engine kept a
// 48-byte Post (unix-nanosecond date, no indicant strings) and a
// 48-byte node; 549 when the message index addressed its lists by
// term-dictionary ID and dropped its own term table; 477 when a message
// became one pointer-free record (header, term IDs, text; no author
// string) behind a one-word Doc and a node 24 bytes; 442 when the
// summary index's term-keyed map became one column of list headers per
// class, indexed by term ID, on the paged column the term dictionary
// and the message index use too. The budget is about 10 % above 442. A
// change that needs more should say where the bytes go (EXPERIMENTS.md
// has the by-owner table) and move the budget knowingly. The term
// dictionary is per process: run alone, the figure includes its
// growth; after another test that resolved the same vocabulary it does
// not, and reads lower.
func TestLiveHeapPerMessage(t *testing.T) {
	const (
		n      = 20000
		budget = 486
	)
	// Most bundles never hold a second message, so the struct itself is
	// a per-message cost: 96 B is id, node slice, the two summary forms,
	// two unix-nanosecond dates, flags and the estimate — one date per
	// fact, no field only tests reach.
	if got := unsafe.Sizeof(bundle.Bundle{}); got != 96 {
		t.Errorf("unsafe.Sizeof(bundle.Bundle{}) = %d, want 96", got)
	}
	// Decoded from JSONL, as a server reads its feed: the heap then holds
	// what the node keeps, not the generator's re-share reservoir.
	var buf bytes.Buffer
	if _, err := stream.WriteJSONL(&buf, stream.Limit(stream.FuncSource(gen.New(gen.DefaultConfig()).Next), n)); err != nil {
		t.Fatal(err)
	}
	rd := stream.NewJSONLReader(&buf)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p := New(core.New(core.FullIndexConfig(), nil, nil), DefaultOptions())
	for {
		m, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		p.Insert(m)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(p)
	runtime.KeepAlive(rd)
	perMsg := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	t.Logf("%d live heap bytes per message (budget %d)", perMsg, budget)
	if perMsg > budget {
		t.Errorf("%d live heap bytes per message after %d messages, budget %d", perMsg, n, budget)
	}
}

// TestEngineDropsParseOutput: a tweet.Message is parse output. Prepare
// resolves its indicants and copies them with its raw fields into the
// message's record, and after that nothing a
// node keeps — bundle node, summary index, message index — points into
// it, so a forced collection frees it. It is checked for a message that
// opens a bundle, one that joins it, and a Doc built the way a decoded
// bundle builds its nodes (DocWithKeywords).
func TestEngineDropsParseOutput(t *testing.T) {
	p := New(core.New(core.FullIndexConfig(), nil, nil), DefaultOptions())
	at := time.Date(2009, 9, 29, 18, 0, 0, 0, time.UTC)
	msg := func(i int) *tweet.Message {
		return tweet.Parse(tweet.ID(i), fmt.Sprintf("user%d", i), at.Add(time.Duration(i)*time.Minute),
			fmt.Sprintf("tsunami warning %d #samoa http://x.io/%d RT @origin: waves", i, i))
	}
	for _, c := range []struct {
		name    string
		m       func() *tweet.Message
		prepare func(*tweet.Message) core.Prepared
		created bool
	}{
		{"fresh bundle", func() *tweet.Message { return msg(1) }, core.Prepare, true},
		{"join", func() *tweet.Message { return msg(2) }, core.Prepare, false},
		{"decoded-bundle doc", func() *tweet.Message { return msg(3) },
			func(m *tweet.Message) core.Prepared {
				return core.Prepared{Doc: score.DocWithKeywords(m, []string{"tsunami", "waves"})}
			}, false},
	} {
		w, res := insertWeak(p, c.m, c.prepare)
		if res.Created != c.created {
			t.Fatalf("%s: Created = %v, want %v", c.name, res.Created, c.created)
		}
		runtime.GC()
		if w.Value() != nil {
			t.Errorf("%s: the parsed Message survives a forced GC: the node pins the parse output", c.name)
		}
	}
	if hits := p.SearchMessages("tsunami", 10); len(hits) != 3 {
		t.Fatalf("message index holds %d of the 3 messages", len(hits))
	}
	runtime.KeepAlive(p)
}

// insertWeak makes a message, applies it through p and returns a weak
// pointer to it; the message itself does not outlive the call.
func insertWeak(p *Processor, mk func() *tweet.Message, prepare func(*tweet.Message) core.Prepared) (weak.Pointer[tweet.Message], core.InsertResult) {
	m := mk()
	return weak.Make(m), p.InsertPrepared(prepare(m))
}
