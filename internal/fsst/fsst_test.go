package fsst

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"provex/internal/gen"
)

// split cuts a fuzz input into the texts of a sample at each newline.
func split(sample []byte) []string {
	if len(sample) == 0 {
		return nil
	}
	return strings.Split(string(sample), "\n")
}

// allBytes is every byte value once, the escape code included.
func allBytes() []byte {
	b := make([]byte, 256)
	for i := range b {
		b[i] = byte(i)
	}
	return b
}

// roundTrip codes text with t and checks that it decodes, and measures,
// as itself.
func roundTrip(tb testing.TB, t *Table, text []byte) []byte {
	tb.Helper()
	coded := t.AppendEncode(nil, string(text))
	if got := t.AppendDecode(nil, coded); !bytes.Equal(got, text) {
		tb.Fatalf("%q codes as %x and decodes as %q", text, coded, got)
	}
	if n := t.DecodedLen(coded); n != len(text) {
		tb.Fatalf("%q: DecodedLen %d, want %d", text, n, len(text))
	}
	if len(coded) > 2*len(text) {
		tb.Fatalf("%q codes to %d bytes, more than two a byte", text, len(coded))
	}
	return coded
}

// FuzzTextCode: a table trained on any sample — empty, one byte value
// over and over, not UTF-8, every byte value, the escape byte itself —
// codes any text, of any bytes and any length, so that it decodes and
// measures as itself, and training is a function of the sample: the
// same sample trains the same table. A decode appends, so what dst held
// before stays.
func FuzzTextCode(f *testing.F) {
	long := strings.Repeat("tsunami warning #samoa http://bit.ly/x ", 2000) // over 64 KiB
	f.Add([]byte{}, []byte("tsunami warning"))
	f.Add([]byte{}, []byte{})
	f.Add([]byte(strings.Repeat("a", 300)), []byte(strings.Repeat("a", 17)+"b"))
	f.Add([]byte("caf\xe9\n\xc3\n\xff\xfe\xfd"), []byte("caf\xe9 \xc3\xff"))
	f.Add(allBytes(), allBytes())
	f.Add([]byte(strings.Repeat("\xff", 64)), []byte("\xff\xff\xffa\xff"))
	f.Add([]byte(long[:1<<12]), []byte(long))
	f.Add([]byte("game RT @user0: stadium cics crowd\nsession #cics #ibm http://bit.ly/rt"), []byte("RT @user0: #ibm"))

	f.Fuzz(func(t *testing.T, sample, text []byte) {
		tab := Train(split(sample))
		roundTrip(t, tab, text)
		roundTrip(t, tab, allBytes())
		for _, s := range split(sample) {
			roundTrip(t, tab, []byte(s))
		}
		if again := Train(split(sample)); *again != *tab {
			t.Fatal("one sample trains two tables")
		}
		prefix := []byte("kept")
		if got := tab.AppendDecode(prefix, tab.AppendEncode(nil, string(text))); !bytes.Equal(got, append([]byte("kept"), text...)) {
			t.Fatalf("AppendDecode after %q: %q", prefix, got)
		}
	})
}

// TestTrainOnTheStream: trained on the first 64 KiB of the generated
// stream's texts, the table codes the next texts of the stream in well
// under their raw length, and training takes a few milliseconds (the
// one-time cost a process pays on its first 64 KiB of text).
func TestTrainOnTheStream(t *testing.T) {
	g := gen.New(gen.DefaultConfig())
	var sample []string
	for size := 0; size < 64<<10; {
		text := g.Next().Text
		sample = append(sample, text)
		size += len(text)
	}
	start := time.Now()
	tab := Train(sample)
	took := time.Since(start)
	raw, stored := 0, 0
	for i := 0; i < 20000; i++ {
		text := g.Next().Text
		raw += len(text)
		stored += len(roundTrip(t, tab, []byte(text)))
	}
	t.Logf("training on %d texts took %v; %d of the next texts: %d B raw, %d B coded (%.3f)",
		len(sample), took, 20000, raw, stored, float64(stored)/float64(raw))
	if stored*10 > raw*7 {
		t.Errorf("coded %d of %d raw bytes, want under 70 %%", stored, raw)
	}
}
