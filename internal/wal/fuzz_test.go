package wal

import (
	"errors"
	"io"
	"testing"
	"time"

	"provex/internal/fsx"
	"provex/internal/score"
	"provex/internal/tweet"
)

// validWALBytes builds a well-formed log file with n records and
// returns its raw content, for use as fuzz seeds.
func validWALBytes(tb testing.TB, n int) []byte {
	tb.Helper()
	mem := fsx.NewMem()
	l, err := Open("wal", Options{FS: mem})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		m := tweet.Parse(tweet.ID(uint64(i)), "fuzzer", time.Unix(int64(1300000000+i), 0), "RT @seed: provenance record")
		if err := l.Append(uint64(i), score.NewDoc(m).Msg); err != nil {
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
// file and (b) a sealed earlier file, and checks the recovery
// contract: never a panic; a sealed file either scans cleanly or
// fails with ErrCorrupt; a tail file is always recovered into an
// appendable log (torn tails truncate silently).
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

	f.Fuzz(func(t *testing.T, data []byte) {
		// (a) As the live tail: Open must tolerate any tail damage by
		// truncating, or reject the whole file as ErrCorrupt. Whatever
		// survives must replay and accept appends.
		mem := fsx.NewMem()
		writeRaw(t, mem, "wal/wal-000001.log", data)
		l, err := Open("wal", Options{FS: mem})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open(tail): non-corruption error %v", err)
			}
			return
		}
		replayed := 0
		if err := l.Replay(0, func(seq uint64, m *tweet.Message) error {
			if m == nil {
				t.Fatal("Replay delivered a nil message")
			}
			replayed++
			return nil
		}); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Replay: non-corruption error %v", err)
		}
		next := l.lastSeq + 1
		if err := l.Append(next, score.NewDoc(&tweet.Message{ID: tweet.ID(next), User: "post", Text: "append after recovery"}).Msg); err != nil {
			t.Fatalf("Append after recovery: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}

		// The appended record must survive a second recovery.
		l2, err := Open("wal", Options{FS: mem})
		if err != nil {
			t.Fatalf("re-Open after append: %v", err)
		}
		found := false
		if err := l2.Replay(0, func(seq uint64, m *tweet.Message) error {
			if seq == next {
				found = true
			}
			return nil
		}); err != nil {
			t.Fatalf("re-Replay: %v", err)
		}
		if !found {
			t.Fatalf("record appended after recovery (seq %d) lost on re-open", next)
		}
		l2.Close()

		// (b) As a sealed earlier file (a valid file follows it):
		// sealed corruption is never tolerated — Open either succeeds
		// (the file was well-formed) or reports ErrCorrupt.
		mem2 := fsx.NewMem()
		writeRaw(t, mem2, "wal/wal-000001.log", data)
		writeRaw(t, mem2, "wal/wal-000002.log", validWALBytes(t, 1))
		l3, err := Open("wal", Options{FS: mem2})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open(sealed): non-corruption error %v", err)
			}
			return
		}
		if err := l3.Replay(0, func(seq uint64, m *tweet.Message) error { return nil }); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Replay(sealed): non-corruption error %v", err)
		}
		l3.Close()
	})
}
