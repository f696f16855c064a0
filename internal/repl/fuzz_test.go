package repl

import (
	"bytes"
	"reflect"
	"testing"

	"provex/internal/recfile"
	"provex/internal/wal"
)

// FuzzFrameDecoder hammers readBatch, the replication stream decoder,
// with torn frames, bit flips and truncated input. Invariants: never
// panic; never deliver more records than the header counts; on
// success, re-encoding the decoded batch and decoding that again
// reproduces the identical records, watermark and cursor (no record is
// silently altered, reordered, dropped or invented — the mis-apply
// guard).
func FuzzFrameDecoder(f *testing.F) {
	valid := appendBatch(nil, wal.Batch{Records: sampleRecords(3), Synced: 3, Next: wal.Cursor{Seg: 2, Off: 77}})
	f.Add([]byte{})
	f.Add([]byte("PROVWAL1 not this stream"))
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add(appendBatch(nil, wal.Batch{}))
	f.Add(append(bytes.Clone(valid), "trailing garbage"...))
	f.Add(appendBatch(nil, wal.Batch{Records: [][]byte{{}, {1}}, Synced: 1 << 40}))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeStream(data)
		if header, herr := recfile.ReadFrame(bytes.NewReader(data), maxStreamHeader); herr == nil {
			c := recfile.NewCursor(header)
			c.Uvarint()
			c.Uvarint()
			c.Uvarint()
			if count := c.Uvarint(); c.Err() == nil && uint64(len(got.Records)) > count {
				t.Fatalf("%d records delivered, the header counts %d", len(got.Records), count)
			}
		} else if len(got.Records) > 0 {
			t.Fatalf("%d records delivered without a header", len(got.Records))
		}
		if err != nil {
			return
		}
		again, err := decodeStream(appendBatch(nil, got))
		if err != nil {
			t.Fatalf("re-decode of re-encoding failed: %v", err)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("round trip: %+v != %+v", again, got)
		}
	})
}
