package recfile

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"testing"

	"provex/internal/fsx"
)

var errTestCorrupt = errors.New("test: corrupt")

func format(magic string, maxRecord int) *Format {
	return &Format{Pkg: "test", Magic: [8]byte([]byte(magic)), Name: "t-%06d.rec", MaxRecord: maxRecord, Corrupt: errTestCorrupt}
}

// testFormat stands in for a caller's layout; walLike, segLike and
// cutLike carry the real magics so the golden files of those packages
// scan.
var testFormat, walLike, segLike, cutLike = format("PROVTST1", 1<<10), format("PROVWAL1", 1<<16), format("PROVSEG1", 1<<16), format("PROVCUT1", 1<<16)

// open opens "d" on fsys and returns what the scan delivered.
func open(t *testing.T, fsys fsx.FS) (*Dir, int64, []string) {
	t.Helper()
	var recs []string
	d, size, err := Open(fsys, "d", testFormat, func(_ int, _ int64, p []byte) error {
		recs = append(recs, string(p))
		return nil
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return d, size, recs
}

// add appends records from..to-1 to d's active file at offset size and
// returns the new size.
func add(t *testing.T, d *Dir, size int64, from, to int) int64 {
	t.Helper()
	for i := from; i < to; i++ {
		frame := append(BeginFrame(nil), fmt.Sprintf("record %d", i)...)
		EndFrame(frame, 0)
		if _, err := d.File().Write(frame); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		size += int64(len(frame))
	}
	return size
}

func TestFrameRoundTripAndDamage(t *testing.T) {
	frame := append(BeginFrame([]byte("before")), "payload"...)
	EndFrame(frame, len("before"))
	frame = frame[len("before"):]
	r := bytes.NewReader(frame)
	if p, err := ReadFrame(r, 16); err != nil || string(p) != "payload" {
		t.Fatalf("ReadFrame = %q, %v", p, err)
	}
	if _, err := ReadFrame(r, 16); err != io.EOF {
		t.Fatalf("at the end: %v, want bare io.EOF", err)
	}
	flipped := append([]byte(nil), frame...)
	flipped[len(flipped)-1] ^= 1
	for name, tc := range map[string]struct {
		data []byte
		max  int
		want error
	}{
		"torn header":  {frame[:5], 16, errTornHeader},
		"torn payload": {frame[:len(frame)-1], 16, errTornPayload},
		"oversized":    {frame, 6, errOversized},
		"bit flip":     {flipped, 16, errChecksum},
	} {
		if _, err := ReadFrame(bytes.NewReader(tc.data), tc.max); err != tc.want {
			t.Errorf("%s: %v, want %v", name, err, tc.want)
		}
	}
}

func TestCursorLatchesFirstError(t *testing.T) {
	buf := AppendStr([]byte{7, 0x96, 0x01, 0x05}, "héllo") // byte, uvarint 150, varint -3
	c := NewCursor(buf)
	if b, u, v, s := c.Byte(), c.Uvarint(), c.Varint(), c.Str(); b != 7 || u != 150 || v != -3 || s != "héllo" || c.Err() != nil || c.Rest() != 0 {
		t.Fatalf("decoded %d %d %d %q, err %v, rest %d", b, u, v, s, c.Err(), c.Rest())
	}
	c = NewCursor(buf[:len(buf)-2]) // the string is cut short
	c.Byte()
	c.Uvarint()
	c.Varint()
	if s := c.Str(); s != "" || c.Err() == nil {
		t.Fatalf("short string read %q, err %v", s, c.Err())
	}
	first := c.Err()
	if c.Byte() != 0 || c.Uvarint() != 0 || c.Varint() != 0 || c.Err() != first {
		t.Fatal("reads after the first error must return zero and keep it")
	}
}

// TestOpenCutsDamagedTail: whatever a crash can leave wrong with the
// final file from some record on — chopped bytes, a flipped bit in the
// last record or in the first, zeros past the last — that record ends
// the file; Open truncates there and the next append lands on a clean
// boundary.
func TestOpenCutsDamagedTail(t *testing.T) {
	for name, tc := range map[string]struct {
		damage func(data []byte) []byte
		want   int
	}{
		"chopped":      {func(d []byte) []byte { return d[:len(d)-3] }, 4},
		"flip in last": {func(d []byte) []byte { d[len(d)-1] ^= 0xFF; return d }, 4},
		"flip in 1st":  {func(d []byte) []byte { d[MagicSize+HeaderSize+2] ^= 0xFF; return d }, 0},
		"absurd len":   {func(d []byte) []byte { return append(d, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0) }, 5},
		"zero-filled":  {func(d []byte) []byte { return append(d, make([]byte, 100)...) }, 5},
	} {
		t.Run(name, func(t *testing.T) {
			mem := fsx.NewMem()
			d, size, _ := open(t, mem)
			add(t, d, size, 0, 5)
			d.Close()
			data, _ := mem.ReadFile("d/t-000001.rec")
			mem.WriteFile("d/t-000001.rec", tc.damage(data))

			d, size, recs := open(t, mem)
			if len(recs) != tc.want {
				t.Fatalf("recovered %q, want %d records", recs, tc.want)
			}
			if data, _ := mem.ReadFile("d/t-000001.rec"); int64(len(data)) != size {
				t.Fatalf("file is %d bytes after Open, valid prefix is %d", len(data), size)
			}
			add(t, d, size, 5, 6)
			d.Close()
			if _, _, recs := open(t, mem); len(recs) != tc.want+1 || recs[tc.want] != "record 5" {
				t.Fatalf("after appending over the cut: %q", recs)
			}
		})
	}
}

// TestOpenRefusesUndecodableRecord: an intact record the owner's
// decoder refuses is no crash debris, so in the final file too it is
// corruption, and Open cuts nothing — cutting would drop it and every
// record behind it.
func TestOpenRefusesUndecodableRecord(t *testing.T) {
	mem := fsx.NewMem()
	d, size, _ := open(t, mem)
	add(t, d, size, 0, 5)
	d.Close()
	before, _ := mem.ReadFile("d/t-000001.rec")
	refuse := func(_ int, _ int64, p []byte) error {
		if string(p) == "record 3" {
			return errors.New("unknown version")
		}
		return nil
	}
	if _, _, err := Open(mem, "d", testFormat, refuse); !errors.Is(err, errTestCorrupt) {
		t.Fatalf("Open over a refused record = %v, want the format's Corrupt", err)
	}
	if after, _ := mem.ReadFile("d/t-000001.rec"); !bytes.Equal(after, before) {
		t.Fatalf("the refused file changed: %d bytes, was %d", len(after), len(before))
	}
}

func TestOpenDropsStillbornFinalFile(t *testing.T) {
	mem := fsx.NewMem()
	d, size, _ := open(t, mem)
	add(t, d, size, 0, 3)
	d.Sync()
	mem.WriteFile("d/t-000002.rec", []byte("PRO")) // a crash while file 2 was being created
	d, _, recs := open(t, mem)
	if len(recs) != 3 || d.Seg() != 1 {
		t.Fatalf("recovered %q into file %d, want 3 records in file 1", recs, d.Seg())
	}
	if segs, _ := d.List(); len(segs) != 1 {
		t.Fatalf("files after Open = %v, want the stillborn one gone", segs)
	}
}

func TestSealedCorruptionFailsOpen(t *testing.T) {
	mem := fsx.NewMem()
	d, size, _ := open(t, mem)
	add(t, d, size, 0, 4)
	if err := d.CreateNext(); err != nil {
		t.Fatal(err)
	}
	add(t, d, MagicSize, 4, 6)
	d.Close()
	data, _ := mem.ReadFile("d/t-000001.rec")
	data[len(data)/2] ^= 0x40
	mem.WriteFile("d/t-000001.rec", data)
	if _, _, err := Open(mem, "d", testFormat, nil); !errors.Is(err, errTestCorrupt) {
		t.Fatalf("Open over a damaged sealed file = %v, want the format's Corrupt", err)
	}
}

func TestCreateNextReplacesDebrisAndSurvivesFailure(t *testing.T) {
	mem := fsx.NewMem()
	ff := fsx.NewFault(mem)
	d, size, _ := open(t, ff)
	size = add(t, d, size, 0, 2)
	// The new file's header sync fails: the old file stays active and the
	// half-made file must not block the next attempt with O_EXCL.
	ff.Arm(1, fsx.Fault{}, fsx.OpSync)
	if err := d.CreateNext(); !errors.Is(err, fsx.ErrInjected) || d.Seg() != 1 {
		t.Fatalf("CreateNext = %v with file %d active, want the injected failure and file 1", err, d.Seg())
	}
	ff.Disarm()
	add(t, d, size, 2, 3)
	// Debris at the next number (a failed start whose removal failed too)
	// is replaced, not EEXIST forever.
	mem.WriteFile("d/t-000002.rec", []byte("debris"))
	if err := d.CreateNext(); err != nil || d.Seg() != 2 {
		t.Fatalf("CreateNext over debris = %v, file %d", err, d.Seg())
	}
	add(t, d, MagicSize, 3, 4)
	d.Close()
	if _, _, recs := open(t, mem); len(recs) != 4 || recs[3] != "record 3" {
		t.Fatalf("recovered %q, want records 0..3 across both files", recs)
	}
}

func TestRewindRepairsTailOrLatchesBroken(t *testing.T) {
	mem := fsx.NewMem()
	ff := fsx.NewFault(mem)
	d, size, _ := open(t, ff)
	size = add(t, d, size, 0, 3)
	// A torn write, repaired: the next record lands where the torn one began.
	ff.Arm(1, fsx.Fault{TornBytes: 5}, fsx.OpWrite)
	if _, err := d.File().Write(make([]byte, 40)); err == nil {
		t.Fatal("armed write succeeded")
	}
	ff.Disarm()
	d.Rewind(size)
	if d.Broken() != nil {
		t.Fatalf("repaired tail latched broken: %v", d.Broken())
	}
	size = add(t, d, size, 3, 4)
	// A torn write whose repair fails too: latched, and the torn tail must
	// stay in the final file, so no next file may be started.
	ff.Arm(1, fsx.Fault{TornBytes: 5, Freeze: true}, fsx.OpWrite, fsx.OpTruncate)
	d.File().Write(make([]byte, 40))
	d.Rewind(size)
	ff.Disarm()
	if d.Broken() == nil || d.CreateNext() == nil {
		t.Fatalf("Broken = %v and CreateNext allowed after a failed repair", d.Broken())
	}
	d.Close()
	if _, _, recs := open(t, mem); len(recs) != 4 {
		t.Fatalf("recovered %q, want records 0..3 and the torn bytes gone", recs)
	}
}

// FuzzScan feeds arbitrary bytes to the shared scanner as one file, in
// the WAL's, the store's and the round ledger's magic. Contract: never
// a panic; a tolerated tail yields a valid
// prefix — cut there, the file scans clean, strictly, with the same
// records; a sealed (strict) scan either covers the whole file or fails
// as corrupt.
func FuzzScan(f *testing.F) {
	for _, name := range []string{"../wal/testdata/golden_pr14.wal", "../storage/testdata/golden_pr16.bls", "../shard/testdata/golden_cuts.log"} {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)-1]) // torn final byte
		f.Add(data[:len(data)/2]) // torn mid-record
		f.Add(data[:MagicSize])   // magic only
		f.Add(data[:MagicSize-1]) // short magic
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)/2] ^= 0x40 // bit flip in a record body
		f.Add(flipped)
		f.Add(append(data[:MagicSize:MagicSize], 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0)) // absurd length field
	}
	f.Add([]byte{})                // empty file
	f.Add([]byte("garbage bytes")) // bad magic

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, format := range []*Format{walLike, segLike, cutLike} {
			mem := fsx.NewMem()
			mem.WriteFile("d/t-000001.rec", data)
			d := &Dir{fs: mem, path: "d", format: format}
			count := func(n *int) RecordFunc { return func(int, int64, []byte) error { *n++; return nil } }
			var tolerated, strict int
			size, err := d.Scan(1, 0, true, count(&tolerated))
			if err != nil {
				if !errors.Is(err, errBadMagic) || bytes.HasPrefix(data, format.Magic[:]) {
					t.Fatalf("tolerant scan: %v", err)
				}
				continue
			}
			if size < MagicSize || size > int64(len(data)) {
				t.Fatalf("valid prefix %d of a %d-byte file", size, len(data))
			}
			full, err := d.Scan(1, 0, false, nil)
			if err != nil && !errors.Is(err, errTestCorrupt) || err == nil && (full != size || size != int64(len(data))) {
				t.Fatalf("strict scan of the whole file = %d, %v (valid prefix %d of %d)", full, err, size, len(data))
			}
			mem.WriteFile("d/t-000001.rec", data[:size])
			if n, err := d.Scan(1, 0, false, count(&strict)); err != nil || n != size || strict != tolerated {
				t.Fatalf("the valid prefix scans to %d with %d records, %v; want %d with %d", n, strict, err, size, tolerated)
			}
		}
	})
}
