package score

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"provex/internal/fsst"
	"provex/internal/metrics"
)

// Message text is held in the record FSST-coded (internal/fsst) with
// one symbol table for the whole process, as the term dictionary is one
// for the whole process: the records of every engine a process runs
// share it. The table is trained once, from a copy of the first
// sampleBytes of text NewDoc sees, and published through textCode.table;
// it never changes after. A record built before that holds its text raw,
// and so does one whose coded form would be no shorter.
//
// The table is an in-memory form only. Every byte that leaves the
// process — WAL records, checkpoints, the store, HTTP bodies — is the
// raw text, so two processes that trained different tables (a leader
// and its follower, a run and its recovery) write and answer the same.
const sampleBytes = 64 << 10

// textCoder is the symbol table and what trains it; the process has
// one, textCode.
type textCoder struct {
	table atomic.Pointer[fsst.Table] // nil until trained

	mu     sync.Mutex
	sample []byte // texts seen so far, each a uvarint length and its bytes; guarded by mu
	done   bool   // the sample is complete and handed to the trainer; guarded by mu

	raw, stored atomic.Int64 // text bytes of every record built, as given and as held
}

var textCode textCoder

// tableFor returns the table a record of text is to be coded with, nil
// until the table is trained. Until then it adds text to the sample,
// and the call that completes the sample trains the table.
func (c *textCoder) tableFor(text string) *fsst.Table {
	if t := c.table.Load(); t != nil || text == "" {
		return t
	}
	c.observe(text)
	return nil
}

// observe copies text into the training sample, cut to the room left,
// and trains the table once the sample is full. Training runs on the
// caller's goroutine, outside the lock; other callers meanwhile store
// their texts raw.
func (c *textCoder) observe(text string) {
	c.mu.Lock()
	if c.done {
		c.mu.Unlock()
		return
	}
	if c.sample == nil {
		c.sample = make([]byte, 0, sampleBytes)
	}
	room := cap(c.sample) - len(c.sample) - binary.MaxVarintLen32
	piece := text[:min(len(text), max(room, 0))]
	c.sample = binary.AppendUvarint(c.sample, uint64(len(piece)))
	c.sample = append(c.sample, piece...)
	var full []byte
	if len(piece) < len(text) || cap(c.sample)-len(c.sample) <= binary.MaxVarintLen32 {
		full, c.sample, c.done = c.sample, nil, true
	}
	c.mu.Unlock()
	if full != nil {
		c.table.Store(fsst.Train(split(full)))
	}
}

// split cuts the sample into its texts.
func split(sample []byte) []string {
	var texts []string
	for len(sample) > 0 {
		n, k := binary.Uvarint(sample)
		texts = append(texts, string(sample[k:k+int(n)]))
		sample = sample[k+int(n):]
	}
	return texts
}

// TextBytes returns the text bytes of every record the process has
// built: raw, as the messages carry them, and stored, as the records
// hold them.
func TextBytes() (raw, stored int64) { return textCode.raw.Load(), textCode.stored.Load() }

// RegisterMetrics exposes the record text's size in both forms and
// whether the table is trained. The table and the counts are per
// process, so a process registers them once, with its other
// process-wide families (server.New does).
func RegisterMetrics(reg *metrics.Registry) {
	const help = "Text bytes of every message record the process has built: raw as the messages carry them, stored as the records hold them (FSST-coded once the table is trained)."
	reg.RegisterGaugeFunc("provex_record_text_bytes", help,
		func() float64 { raw, _ := TextBytes(); return float64(raw) }, "form", "raw")
	reg.RegisterGaugeFunc("provex_record_text_bytes", help,
		func() float64 { _, stored := TextBytes(); return float64(stored) }, "form", "stored")
	reg.RegisterGaugeFunc("provex_record_text_table_trained",
		"1 once the process's text symbol table is trained and new records hold their text coded, else 0.",
		func() float64 {
			if textCode.table.Load() != nil {
				return 1
			}
			return 0
		})
}
