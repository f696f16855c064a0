package wal

import (
	"errors"
	"io"
	"slices"
	"testing"
	"time"

	"provex/internal/fsx"
	"provex/internal/tweet"
)

// validWALBytes builds a well-formed log file with n records and
// returns its raw content, for use as fuzz seeds.
func validWALBytes(tb testing.TB, n int) []byte {
	tb.Helper()
	mem := fsx.NewMem()
	l, err := Open("wal", Options{FS: mem}, 0, nil)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		m := tweet.Parse(tweet.ID(uint64(i)), "fuzzer", time.Unix(int64(1300000000+i), 0), "RT @seed: provenance record")
		if err := l.Append(uint64(i), m); err != nil {
			tb.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	f, err := mem.Open("wal/wal-000001.log")
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func writeRaw(tb testing.TB, mem *fsx.MemFS, name string, data []byte) {
	tb.Helper()
	if err := mem.MkdirAll("wal", 0o755); err != nil {
		tb.Fatal(err)
	}
	f, err := mem.Create(name)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		tb.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
}

// FuzzOpenReplay feeds arbitrary bytes to the WAL as (a) the live tail
// file and (b) a sealed earlier file, and checks the one-scan recovery
// contract: never a panic; Open either fails with ErrCorrupt or hands
// every surviving record to apply once, in log order — a second Open
// over what the first left replays the same sequences; a sealed file
// either scans cleanly or fails with ErrCorrupt; a tail file is always
// recovered into an appendable log (torn tails truncate silently).
func FuzzOpenReplay(f *testing.F) {
	valid := validWALBytes(f, 3)
	f.Add(valid)
	f.Add(valid[:len(valid)-1])    // torn final byte
	f.Add(valid[:len(valid)/2])    // torn mid-record
	f.Add([]byte("PROVWAL1"))      // magic only
	f.Add([]byte("PROVWAL"))       // short magic
	f.Add([]byte{})                // empty file
	f.Add([]byte("garbage bytes")) // bad magic
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40 // bit flip in a record body
	f.Add(flipped)
	huge := append([]byte(nil), valid[:8]...)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0) // absurd length field
	f.Add(huge)

	// open opens the log at "wal" on fsys and returns the sequences its
	// scan handed to apply.
	open := func(t *testing.T, fsys fsx.FS) (*Log, []uint64, error) {
		var seqs []uint64
		l, err := Open("wal", Options{FS: fsys}, 0, func(seq uint64, m *tweet.Message) error {
			if m == nil {
				t.Fatal("Open applied a nil message")
			}
			seqs = append(seqs, seq)
			return nil
		})
		return l, seqs, err
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// (a) As the live tail: Open must tolerate any tail damage by
		// truncating, or reject the whole file as ErrCorrupt. Whatever
		// survives was applied, and accepts appends.
		mem := fsx.NewMem()
		writeRaw(t, mem, "wal/wal-000001.log", data)
		l, seqs, err := open(t, mem)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open(tail): non-corruption error %v", err)
			}
			return
		}
		if len(seqs) > 0 && l.lastSeq != slices.Max(seqs) {
			t.Fatalf("LastSeq %d, want the highest applied sequence %d", l.lastSeq, slices.Max(seqs))
		}
		next := l.lastSeq + 1
		if err := l.Append(next, &tweet.Message{ID: tweet.ID(next), User: "post", Text: "append after recovery"}); err != nil {
			t.Fatalf("Append after recovery: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}

		// The second recovery replays what the first applied, once and
		// in the same order, and then the appended record.
		l2, seqs2, err := open(t, mem)
		if err != nil {
			t.Fatalf("re-Open after append: %v", err)
		}
		if want := append(seqs, next); !slices.Equal(seqs2, want) {
			t.Fatalf("re-Open applied %v, want %v", seqs2, want)
		}
		l2.Close()

		// (b) As a sealed earlier file (a valid file follows it):
		// sealed corruption is never tolerated — Open either succeeds
		// (the file was well-formed), having applied the following
		// file's record last, or reports ErrCorrupt.
		mem2 := fsx.NewMem()
		writeRaw(t, mem2, "wal/wal-000001.log", data)
		writeRaw(t, mem2, "wal/wal-000002.log", validWALBytes(t, 1))
		l3, seqs3, err := open(t, mem2)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open(sealed): non-corruption error %v", err)
			}
			return
		}
		if len(seqs3) == 0 || seqs3[len(seqs3)-1] != 1 {
			t.Fatalf("Open(sealed) applied %v, want the following file's record 1 last", seqs3)
		}
		l3.Close()
	})
}
