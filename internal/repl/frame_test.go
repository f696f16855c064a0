package repl

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"provex/internal/fsx"
	"provex/internal/recfile"
	"provex/internal/tweet"
	"provex/internal/wal"
)

// decodeStream reads one stream, collecting its records.
func decodeStream(wire []byte) (wal.Batch, error) {
	var b wal.Batch
	var err error
	b.Synced, b.Next, err = readBatch(bytes.NewReader(wire), func(p []byte) error {
		b.Records = append(b.Records, p)
		return nil
	})
	return b, err
}

func sampleMessage(i int) *tweet.Message {
	return tweet.Parse(tweet.ID(i+1), fmt.Sprintf("u%d", i),
		time.Date(2009, 9, 29, 18, 0, i, 0, time.UTC),
		fmt.Sprintf("msg %d #tag", i))
}

func sampleRecords(n int) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = wal.AppendRecord(nil, uint64(i+1), &sampleMessage(i).Post)
	}
	return recs
}

// TestStreamRoundtrip ships a batch read from a real log: it decodes to
// the same records, watermark and cursor, and behind the header frame
// the stream is the log file's own frames, byte for byte.
func TestStreamRoundtrip(t *testing.T) {
	mem := fsx.NewMem()
	l, err := wal.Open("wal", wal.Options{FS: mem, SyncEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 7; i++ {
		if err := l.Append(uint64(i+1), &sampleMessage(i).Post); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	batch, err := l.ReadBatch(0, wal.Cursor{}, 0)
	if err != nil || len(batch.Records) != 7 {
		t.Fatalf("ReadBatch: %d records, err %v", len(batch.Records), err)
	}
	wire := appendBatch(nil, batch)

	got, err := decodeStream(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Synced != batch.Synced || got.Next != batch.Next || len(got.Records) != len(batch.Records) {
		t.Fatalf("decoded synced %d next %+v, %d records; want %d, %+v, %d",
			got.Synced, got.Next, len(got.Records), batch.Synced, batch.Next, len(batch.Records))
	}
	for i, rec := range got.Records {
		if !bytes.Equal(rec, batch.Records[i]) {
			t.Fatalf("record %d mutated in transit", i)
		}
		if seq, m, err := wal.DecodeRecord(rec); err != nil || seq != uint64(i+1) || m == nil {
			t.Fatalf("record %d undecodable: seq=%d err=%v", i, seq, err)
		}
	}

	file, err := mem.ReadFile("wal/wal-000001.log")
	if err != nil {
		t.Fatal(err)
	}
	header, err := recfile.ReadFrame(bytes.NewReader(wire), recfile.Castagnoli, maxStreamHeader)
	if err != nil {
		t.Fatal(err)
	}
	if records := wire[recfile.HeaderSize+len(header):]; !bytes.Equal(records, file[recfile.MagicSize:]) {
		t.Fatalf("the %d record bytes of the stream are not the %d frame bytes of the log file", len(records), len(file)-recfile.MagicSize)
	}
}

func TestStreamEmptyBatch(t *testing.T) {
	wire := appendBatch(nil, wal.Batch{Synced: 42, Next: wal.Cursor{Seg: 1, Off: 8}})
	synced, next, err := readBatch(bytes.NewReader(wire), func([]byte) error {
		t.Fatal("record in an empty batch")
		return nil
	})
	if err != nil || synced != 42 || next != (wal.Cursor{Seg: 1, Off: 8}) {
		t.Fatalf("synced=%d next=%+v err=%v", synced, next, err)
	}
}

// TestStreamTruncationNeverDecodes: every proper prefix is an error,
// after exactly the records wholly inside it.
func TestStreamTruncationNeverDecodes(t *testing.T) {
	records := sampleRecords(3)
	wire := appendBatch(nil, wal.Batch{Records: records, Synced: 3})
	header, err := recfile.ReadFrame(bytes.NewReader(wire), recfile.Castagnoli, maxStreamHeader)
	if err != nil {
		t.Fatal(err)
	}
	ends := []int{recfile.HeaderSize + len(header)} // ends[k]: where record k+1 begins
	for _, rec := range records {
		ends = append(ends, ends[len(ends)-1]+recfile.HeaderSize+len(rec))
	}
	for cut := 0; cut < len(wire); cut++ {
		got, err := decodeStream(wire[:cut])
		whole := 0
		for whole < len(records) && ends[whole+1] <= cut {
			whole++
		}
		if err == nil || len(got.Records) != whole {
			t.Fatalf("cut at %d/%d: %d records, err %v; want %d and an error", cut, len(wire), len(got.Records), err, whole)
		}
	}
}

func TestStreamBitFlipNeverDecodes(t *testing.T) {
	wire := appendBatch(nil, wal.Batch{Records: sampleRecords(2), Synced: 2, Next: wal.Cursor{Seg: 1, Off: 100}})
	for i := range wire {
		for bit := 0; bit < 8; bit++ {
			flipped := bytes.Clone(wire)
			flipped[i] ^= 1 << bit
			if _, err := decodeStream(flipped); err == nil {
				t.Fatalf("flip byte %d bit %d decoded cleanly", i, bit)
			}
		}
	}
}

func TestStreamRecordErrorPropagates(t *testing.T) {
	wire := appendBatch(nil, wal.Batch{Records: sampleRecords(2), Synced: 2})
	sentinel := errors.New("apply failed")
	_, _, err := readBatch(bytes.NewReader(wire), func([]byte) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v", err)
	}
}

func TestStreamOversizedFrameRejected(t *testing.T) {
	wire := appendBatch(nil, wal.Batch{Records: sampleRecords(1), Synced: 1})
	header, err := recfile.ReadFrame(bytes.NewReader(wire), recfile.Castagnoli, maxStreamHeader)
	if err != nil {
		t.Fatal(err)
	}
	at := recfile.HeaderSize + len(header)
	wire[at], wire[at+1], wire[at+2], wire[at+3] = 0xff, 0xff, 0xff, 0xff // ~4GB length
	if _, err := decodeStream(wire); err == nil {
		t.Fatal("a 4 GB record length decoded")
	}
}
