package repl

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"provex/internal/tweet"
	"provex/internal/wal"
)

// encodeStream builds a valid wire stream of the given record payloads
// plus trailer.
func encodeStream(t testing.TB, records [][]byte, end StreamEnd) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	for _, rec := range records {
		if err := sw.Record(rec); err != nil {
			t.Fatalf("write record: %v", err)
		}
	}
	if err := sw.End(end); err != nil {
		t.Fatalf("write end: %v", err)
	}
	return buf.Bytes()
}

func sampleRecords(n int) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		m := tweet.Parse(tweet.ID(i+1), fmt.Sprintf("u%d", i),
			time.Date(2009, 9, 29, 18, 0, i, 0, time.UTC),
			fmt.Sprintf("msg %d #tag", i))
		recs[i] = wal.AppendRecord(nil, uint64(i+1), m)
	}
	return recs
}

func TestStreamRoundtrip(t *testing.T) {
	records := sampleRecords(7)
	wantEnd := StreamEnd{Synced: 7, Next: wal.Cursor{Seg: 3, Off: 4096}}
	wire := encodeStream(t, records, wantEnd)

	var got [][]byte
	end, err := ReadStream(bytes.NewReader(wire), func(p []byte) error {
		got = append(got, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if end != wantEnd {
		t.Fatalf("trailer %+v want %+v", end, wantEnd)
	}
	if len(got) != len(records) {
		t.Fatalf("got %d records", len(got))
	}
	for i := range got {
		if !bytes.Equal(got[i], records[i]) {
			t.Fatalf("record %d mutated in transit", i)
		}
		seq, m, err := wal.DecodeRecord(got[i])
		if err != nil || seq != uint64(i+1) || m == nil {
			t.Fatalf("record %d undecodable: seq=%d err=%v", i, seq, err)
		}
	}
}

func TestStreamEmptyBatch(t *testing.T) {
	wire := encodeStream(t, nil, StreamEnd{Synced: 42, Next: wal.Cursor{Seg: 1, Off: 8}})
	end, err := ReadStream(bytes.NewReader(wire), func([]byte) error {
		t.Fatal("record in an empty batch")
		return nil
	})
	if err != nil || end.Synced != 42 {
		t.Fatalf("end=%+v err=%v", end, err)
	}
}

func TestStreamTruncationNeverDecodes(t *testing.T) {
	wire := encodeStream(t, sampleRecords(3), StreamEnd{Synced: 3})
	for cut := 0; cut < len(wire); cut++ {
		_, err := ReadStream(bytes.NewReader(wire[:cut]), func([]byte) error { return nil })
		if !errors.Is(err, ErrFrame) {
			t.Fatalf("cut at %d: want ErrFrame, got %v", cut, err)
		}
	}
}

func TestStreamBitFlipNeverDecodes(t *testing.T) {
	wire := encodeStream(t, sampleRecords(2), StreamEnd{Synced: 2, Next: wal.Cursor{Seg: 1, Off: 100}})
	for i := range wire {
		for bit := 0; bit < 8; bit++ {
			flipped := bytes.Clone(wire)
			flipped[i] ^= 1 << bit
			_, err := ReadStream(bytes.NewReader(flipped), func([]byte) error { return nil })
			if err == nil {
				t.Fatalf("flip byte %d bit %d decoded cleanly", i, bit)
			}
		}
	}
}

func TestStreamRecordErrorPropagates(t *testing.T) {
	wire := encodeStream(t, sampleRecords(2), StreamEnd{Synced: 2})
	sentinel := errors.New("apply failed")
	_, err := ReadStream(bytes.NewReader(wire), func([]byte) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v", err)
	}
}

func TestStreamOversizedFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(streamMagic)
	hdr := make([]byte, frameHeaderSize)
	hdr[0] = frameRecord
	hdr[1], hdr[2], hdr[3], hdr[4] = 0xff, 0xff, 0xff, 0xff // ~4GB length
	buf.Write(hdr)
	_, err := ReadStream(&buf, func([]byte) error { return nil })
	if !errors.Is(err, ErrFrame) {
		t.Fatalf("want ErrFrame, got %v", err)
	}
}
